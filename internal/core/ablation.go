package core

import (
	"math"

	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/tx"
)

// Ablation switches turn off individual ingredients of the prescient
// router so experiments can attribute the gains of Algorithm 1 to its
// parts (reordering, the load-balancing pass, data fusion itself):
//
//   - NoReorder keeps the batch in arrival order during step 1, routing
//     each transaction greedily in place — isolating the value of
//     reordering (the Fig. 3/Fig. 5 ping-pong avoidance).
//   - NoRebalance skips step 3 entirely, leaving the route that minimizes
//     remote reads — the router degenerates toward LEAP-with-lookahead.
//   - NoFusion routes exactly like Hermes but never migrates ownership:
//     written remote records are sent back to their owners after commit —
//     the router degenerates toward T-Part-without-forward-pushing.
type Ablation struct {
	NoReorder   bool
	NoRebalance bool
	NoFusion    bool
}

// AblatedPrescient is a Prescient router with selected ingredients
// disabled. It implements router.Policy. Like Prescient, it reuses
// per-batch scratch state and is not safe for concurrent RouteUser calls.
type AblatedPrescient struct {
	p   *Prescient
	abl Ablation
}

// NewAblated returns a prescient router with the given ablations.
// (With NoFusion the table simply stays empty — nothing ever migrates.)
func NewAblated(base partition.Partitioner, active []tx.NodeID, cfg Config, abl Ablation) *AblatedPrescient {
	return &AblatedPrescient{p: New(base, active, cfg), abl: abl}
}

// Placement implements router.Policy.
func (a *AblatedPrescient) Placement() *router.Placement { return a.p.pl }

// RouteUser implements router.Policy.
func (a *AblatedPrescient) RouteUser(txns []*tx.Request) []*router.Route {
	p := a.p
	active := p.pl.Active()
	n := len(active)
	b := len(txns)
	if n == 0 || b == 0 {
		return nil
	}

	p.beginBatch(txns, active)
	sc := &p.sc

	if a.abl.NoReorder {
		// Step 1 without reordering: greedy route in arrival order.
		for t := range txns {
			node := p.bestRoute(int32(t)).node()
			sc.order = append(sc.order, int32(t))
			sc.masters = append(sc.masters, node)
			sc.loads[node]++
			for _, u := range sc.usesOf(int32(t)) {
				if u.write {
					sc.eff[u.ord] = node
				}
			}
		}
	} else {
		p.planGreedy()
	}

	if !a.abl.NoRebalance {
		theta := int(math.Ceil(float64(b) / float64(n) * (1 + p.cfg.Alpha)))
		p.rebalance(txns, theta)
	}

	ar := newRouteArena(txns)
	for i, t := range sc.order {
		if a.abl.NoFusion {
			a.commitRouteNoFusion(txns[t], sc.usesOf(t), active[sc.masters[i]], ar)
		} else {
			p.commitRoute(txns[t], sc.usesOf(t), active[sc.masters[i]], ar)
		}
	}
	return ar.ptrs
}

// commitRouteNoFusion emits a route where remote written records are
// write-backs instead of migrations, leaving placement untouched.
func (a *AblatedPrescient) commitRouteNoFusion(r *tx.Request, uses []use, master tx.NodeID, ar *routeArena) *router.Route {
	sc := &a.p.sc
	keys := r.AccessSet()
	oBase := len(ar.owners)
	for j, u := range uses {
		ar.owners = append(ar.owners, router.OwnerPair{Key: keys[j], Node: sc.owner[u.ord]})
	}
	ar.routes = ar.routes[:len(ar.routes)+1]
	route := &ar.routes[len(ar.routes)-1]
	route.Txn, route.Mode, route.Master = r, router.SingleMaster, master
	route.Owners = router.Owners(ar.owners[oBase:len(ar.owners):len(ar.owners)])
	ar.ptrs = append(ar.ptrs, route)
	wbBase := len(ar.wb)
	for j, u := range uses {
		if u.write && route.Owners[j].Node != master {
			ar.wb = append(ar.wb, keys[j])
		}
	}
	if len(ar.wb) > wbBase {
		route.WriteBack = ar.wb[wbBase:len(ar.wb):len(ar.wb)]
	}
	return route
}
