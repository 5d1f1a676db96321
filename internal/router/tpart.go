package router

import (
	"math"

	"hermes/internal/partition"
	"hermes/internal/tx"
)

// TPart is the transaction-routing-only baseline (§5.2.1, Wu et al.):
// a single-master scheme that routes each transaction, in arrival order,
// to the node owning most of its reads subject to a load threshold — so
// it balances load like Hermes — and forward-pushes records between
// transactions of the same batch. Because the data partitioning is fixed,
// every record a batch moved must be written back to its home partition
// when the batch ends; that write-back traffic is T-Part's structural
// cost relative to Hermes (§5.2.3).
//
// Forward pushing is modelled as a batch-scoped ownership overlay: a
// record written by an in-batch transaction lives at that transaction's
// master until the last in-batch toucher returns it home.
type TPart struct {
	pl    *Placement
	alpha float64
}

// NewTPart returns a T-Part policy over base with the given active nodes
// and load-imbalance tolerance alpha (≥ 0).
func NewTPart(base partition.Partitioner, active []tx.NodeID, alpha float64) *TPart {
	return &TPart{pl: NewPlacement(base, active, nil), alpha: alpha}
}

// Placement implements Policy.
func (t *TPart) Placement() *Placement { return t.pl }

// RouteUser implements Policy.
func (t *TPart) RouteUser(txns []*tx.Request) []*Route {
	active := t.pl.Active()
	n := len(active)
	if n == 0 {
		return nil
	}
	theta := int(math.Ceil(float64(len(txns)) / float64(n) * (1 + t.alpha)))
	loads := make([]int, n)
	overlay := map[tx.Key]tx.NodeID{} // forward-pushed records: key -> holder
	lastToucher := map[tx.Key]*Route{}
	routes := make([]*Route, 0, len(txns))

	for _, r := range txns {
		access := r.AccessSet()
		counts, _ := ownerHistogram(t.pl, overlay, r.ReadSet(), active)
		// Pick the best-scoring node under the load threshold; if every
		// node is saturated, fall back to the least loaded (keeps the
		// plan feasible; theta's ceiling makes this rare).
		best := -1
		for i := range active {
			if loads[i] >= theta {
				continue
			}
			if best == -1 || counts[i] > counts[best] {
				best = i
			}
		}
		if best == -1 {
			best = 0
			for i := 1; i < n; i++ {
				if loads[i] < loads[best] {
					best = i
				}
			}
		}
		master := active[best]
		loads[best]++

		owners := make(Owners, 0, len(access))
		for _, k := range access {
			if o, ok := overlay[k]; ok {
				owners = append(owners, OwnerPair{Key: k, Node: o})
			} else {
				owners = append(owners, OwnerPair{Key: k, Node: t.pl.Owner(k)})
			}
		}
		route := &Route{Txn: r, Mode: SingleMaster, Master: master, Owners: owners}
		for _, k := range r.WriteSet() {
			// Blind writes (inserts) go straight back to their home
			// partition instead of riding the forward-push overlay; no
			// later transaction reads them within the batch, so pushing
			// them around would just double the migration traffic.
			if _, moved := overlay[k]; !moved && !tx.ContainsKey(r.ReadSet(), k) && owners.Get(k) != master {
				route.WriteBack = append(route.WriteBack, k)
				continue
			}
			if o := owners.Get(k); o != master {
				// The record moves to the master with this transaction
				// (forward pushing); it will be returned home at batch end.
				route.Migrations = append(route.Migrations, Migration{Key: k, From: o, To: master})
			}
			overlay[k] = master
		}
		for _, k := range access {
			if _, moved := overlay[k]; moved {
				lastToucher[k] = route
			}
		}
		routes = append(routes, route)
	}

	// Batch ends: every forward-pushed record returns to its home
	// partition, attached to the last transaction that touched it.
	// Iterate routes (deterministic order), not the overlay map.
	for _, route := range routes {
		for _, k := range route.Txn.AccessSet() {
			holder, moved := overlay[k]
			if !moved || lastToucher[k] != route {
				continue
			}
			home := t.pl.Home(k)
			if holder != home {
				route.Migrations = append(route.Migrations, Migration{Key: k, From: holder, To: home})
			}
			delete(overlay, k)
		}
	}
	return routes
}
