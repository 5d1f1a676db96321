package router

import (
	"hermes/internal/fusion"
	"hermes/internal/partition"
	"hermes/internal/tx"
)

// LEAP is the look-present baseline of Lin et al. (§5.2.1): like G-Store
// it routes each transaction to the owner of the majority of its records,
// but instead of writing remote records back it *migrates* them to the
// master, so later transactions with temporal locality find them local.
// LEAP considers neither load balance nor future transactions; under
// heavy distributed workloads its ownership map funnels all active
// records onto one node (the bottleneck the paper observes), and
// consecutive conflicting transactions on different masters ping-pong
// records between nodes.
type LEAP struct {
	pl *Placement
}

// NewLEAP returns a LEAP policy over base with the given active nodes.
// Its ownership map is an unbounded fusion table (the paper notes LEAP
// has no size control).
func NewLEAP(base partition.Partitioner, active []tx.NodeID) *LEAP {
	return &LEAP{pl: NewPlacement(base, active, fusion.New(0, fusion.FIFO))}
}

// Placement implements Policy.
func (l *LEAP) Placement() *Placement { return l.pl }

// RouteUser implements Policy.
func (l *LEAP) RouteUser(txns []*tx.Request) []*Route {
	routes := make([]*Route, 0, len(txns))
	active := l.pl.Active()
	for _, r := range txns {
		access := r.AccessSet()
		owners := ownersOf(l.pl, access)
		_, best := ownerHistogram(l.pl, nil, access, active)
		master := active[best]
		route := &Route{Txn: r, Mode: SingleMaster, Master: master, Owners: owners}
		for _, k := range access {
			if o := owners.Get(k); o != master {
				route.Migrations = append(route.Migrations, Migration{Key: k, From: o, To: master})
			}
			// Track ownership at the master; entries whose owner matches
			// the cold home are redundant and dropped to keep the map
			// minimal.
			if l.pl.Home(k) == master {
				l.pl.Fusion.Delete(k)
			} else {
				l.pl.Fusion.Put(k, master)
			}
		}
		routes = append(routes, route)
	}
	return routes
}
