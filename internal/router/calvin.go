package router

import (
	"hermes/internal/partition"
	"hermes/internal/tx"
)

// Calvin is the vanilla baseline (§5.2.1): multi-master execution with no
// reordering, no data migration, and placement fixed at the static layout
// (plus any cold-migration overrides applied by an external planner such
// as Clay). A transaction executes on every node owning part of its
// write-set; owners of read-set fragments broadcast them to the writers.
type Calvin struct {
	pl *Placement
}

// NewCalvin returns a Calvin policy over base with the given active nodes.
func NewCalvin(base partition.Partitioner, active []tx.NodeID) *Calvin {
	return &Calvin{pl: NewPlacement(base, active, nil)}
}

// Placement implements Policy.
func (c *Calvin) Placement() *Placement { return c.pl }

// RouteUser implements Policy.
func (c *Calvin) RouteUser(txns []*tx.Request) []*Route {
	routes := make([]*Route, 0, len(txns))
	for _, r := range txns {
		owners := ownersOf(c.pl, r.AccessSet())
		var writers []tx.NodeID
		seen := map[tx.NodeID]bool{}
		for _, k := range r.WriteSet() {
			if o := owners.Get(k); !seen[o] {
				seen[o] = true
				writers = append(writers, o)
			}
		}
		if len(writers) == 0 {
			// Read-only transaction: one node (the owner of the first
			// read key, or the first active node) executes and replies.
			w := tx.NoNode
			if rs := r.ReadSet(); len(rs) > 0 {
				w = owners.Get(rs[0])
			} else if a := c.pl.Active(); len(a) > 0 {
				w = a[0]
			}
			writers = []tx.NodeID{w}
		}
		sortNodes(writers)
		routes = append(routes, &Route{
			Txn: r, Mode: MultiMaster, Master: writers[0],
			Writers: writers, Owners: owners,
		})
	}
	return routes
}
