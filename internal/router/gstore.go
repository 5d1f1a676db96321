package router

import (
	"hermes/internal/partition"
	"hermes/internal/tx"
)

// GStore is the G-Store+ look-present baseline (§5.2.1): each transaction
// is routed to the single node owning the majority of its accessed
// records; that master pulls the remaining records, executes, and writes
// the remotely owned written records back to their home partitions after
// commit. Ownership never changes, so consecutive transactions on the
// same keys pay the pull/write-back cost again and again.
type GStore struct {
	pl *Placement
}

// NewGStore returns a G-Store+ policy over base with the given active
// nodes.
func NewGStore(base partition.Partitioner, active []tx.NodeID) *GStore {
	return &GStore{pl: NewPlacement(base, active, nil)}
}

// Placement implements Policy.
func (g *GStore) Placement() *Placement { return g.pl }

// RouteUser implements Policy.
func (g *GStore) RouteUser(txns []*tx.Request) []*Route {
	routes := make([]*Route, 0, len(txns))
	active := g.pl.Active()
	for _, r := range txns {
		access := r.AccessSet()
		owners := ownersOf(g.pl, access)
		_, best := ownerHistogram(g.pl, nil, access, active)
		master := active[best]
		var writeBack []tx.Key
		for _, k := range r.WriteSet() {
			if owners.Get(k) != master {
				writeBack = append(writeBack, k)
			}
		}
		routes = append(routes, &Route{
			Txn: r, Mode: SingleMaster, Master: master,
			Owners: owners, WriteBack: writeBack,
		})
	}
	return routes
}
