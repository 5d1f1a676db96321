package core

// This file preserves the straightforward implementation of Algorithm 1
// that predates the incremental-index rewrite of prescient.go, verbatim
// except for mechanical renames (ref* prefixes), the Route.Owners
// representation (router.Owners.Set instead of map assignment — Set keeps
// entries key-sorted, so reference output is comparable field-by-field
// with the optimized router's slab-carved snapshots), the NoReorder and
// NoRebalance switches of AblatedPrescient, and one fix both carry: step
// 1 compares a picked write against the key's effective owner, so a key
// moved onto node 0 is recorded too.
//
// It is the oracle for the differential tests: the optimized
// router must produce byte-identical routing decisions — same reordering,
// same masters, same owner snapshots, same migration and write-back
// lists, same fusion-table evolution — on any batch stream. Determinism
// across replicas is the system's core invariant (§3.1), so "faster" is
// only admissible as "identical output, less work".

import (
	"math"

	"hermes/internal/fusion"
	"hermes/internal/router"
	"hermes/internal/tx"
)

// score orders candidate (transaction, node) choices in step 1:
// primarily fewest remote reads r(x; T, P_i), then fewest write
// migrations, then lowest node id (determinism), and finally earliest
// batch position (stability). Load does not participate — Algorithm 1
// defers all balancing to step 3.
type score struct {
	remoteReads int
	migrations  int
	node        int
	pos         int
}

func (s score) less(o score) bool {
	if s.remoteReads != o.remoteReads {
		return s.remoteReads < o.remoteReads
	}
	if s.migrations != o.migrations {
		return s.migrations < o.migrations
	}
	if s.node != o.node {
		return s.node < o.node
	}
	return s.pos < o.pos
}

// referenceRouteUser is the pre-optimization RouteUser: Algorithm 1 with
// per-pick rescans, per-call allocation, and per-candidate remote-edge
// recounts. It shares p's placement and fusion table, so run it on a
// dedicated Prescient.
func referenceRouteUser(p *Prescient, txns []*tx.Request) []*router.Route {
	return refRouteAblated(p, txns, Ablation{})
}

// refRouteAblated is referenceRouteUser with AblatedPrescient's NoReorder
// and NoRebalance switches (NoFusion has no reference).
func refRouteAblated(p *Prescient, txns []*tx.Request, abl Ablation) []*router.Route {
	active := p.pl.Active()
	n := len(active)
	b := len(txns)
	if n == 0 || b == 0 {
		return nil
	}

	overlay := make(map[tx.Key]tx.NodeID)
	loads := make([]int, n)
	nodeIdx := make(map[tx.NodeID]int, n)
	for i, a := range active {
		nodeIdx[a] = i
	}
	var order []*tx.Request
	var masters []tx.NodeID
	if abl.NoReorder {
		for _, r := range txns {
			_, x := refBestRouteFor(p, r, overlay, active, nodeIdx)
			order = append(order, r)
			masters = append(masters, active[x])
			loads[x]++
			for _, k := range r.WriteSet() {
				overlay[k] = active[x]
			}
		}
	} else {
		order, masters = refPlan(p, txns, overlay, active, nodeIdx, loads)
	}

	if !abl.NoRebalance {
		theta := int(math.Ceil(float64(b) / float64(n) * (1 + p.cfg.Alpha)))
		refRebalance(p, order, masters, loads, overlay, active, nodeIdx, theta)
	}

	routes := make([]*router.Route, 0, b)
	for i, r := range order {
		routes = append(routes, refCommitRoute(p, r, masters[i]))
	}
	return routes
}

// refPlan is step 1: greedy reorder + route with an O(b) rescan per pick
// (cands invalidated by write-set intersection, recomputed lazily during
// the scan).
func refPlan(p *Prescient, txns []*tx.Request, overlay map[tx.Key]tx.NodeID, active []tx.NodeID, nodeIdx map[tx.NodeID]int, loads []int) ([]*tx.Request, []tx.NodeID) {
	b := len(txns)
	order := make([]*tx.Request, 0, b)
	masters := make([]tx.NodeID, 0, b)
	type cand struct {
		s     score
		node  int
		valid bool
	}
	cands := make([]cand, b)
	taken := make([]bool, b)
	byKey := make(map[tx.Key][]int)
	for i, r := range txns {
		for _, k := range r.AccessSet() {
			byKey[k] = append(byKey[k], i)
		}
	}
	for i, r := range txns {
		s, x := refBestRouteFor(p, r, overlay, active, nodeIdx)
		s.pos = i
		cands[i] = cand{s: s, node: x, valid: true}
	}
	for picked := 0; picked < b; picked++ {
		bestTxn := -1
		for i := range cands {
			if taken[i] {
				continue
			}
			if !cands[i].valid {
				s, x := refBestRouteFor(p, txns[i], overlay, active, nodeIdx)
				s.pos = i
				cands[i] = cand{s: s, node: x, valid: true}
			}
			if bestTxn == -1 || cands[i].s.less(cands[bestTxn].s) {
				bestTxn = i
			}
		}
		r := txns[bestTxn]
		taken[bestTxn] = true
		order = append(order, r)
		masters = append(masters, active[cands[bestTxn].node])
		loads[cands[bestTxn].node]++
		for _, k := range r.WriteSet() {
			o, ok := overlay[k]
			if !ok {
				o = p.pl.Owner(k)
			}
			if o != active[cands[bestTxn].node] {
				overlay[k] = active[cands[bestTxn].node]
				for _, ti := range byKey[k] {
					if !taken[ti] {
						cands[ti].valid = false
					}
				}
			}
		}
	}
	return order, masters
}

// refRebalance is step 3 with a full overload recount per move attempt, a
// per-candidate remoteEdges call, and a δ loop that re-walks the batch at
// every budget up to the bound.
func refRebalance(p *Prescient, order []*tx.Request, masters []tx.NodeID, loads []int, overlay map[tx.Key]tx.NodeID, active []tx.NodeID, nodeIdx map[tx.NodeID]int, theta int) {
	b := len(order)
	overloaded := func() int {
		c := 0
		for _, l := range loads {
			if l > theta {
				c++
			}
		}
		return c
	}
	maxDelta := 1
	for _, r := range order {
		if e := len(r.ReadSet()) + len(r.WriteSet())*b; e > maxDelta {
			maxDelta = e
		}
	}
	for delta := 1; overloaded() > 0 && delta <= maxDelta; delta++ {
		for i := b - 1; i >= 0 && overloaded() > 0; i-- {
			xi := nodeIdx[masters[i]]
			if loads[xi] <= theta {
				continue
			}
			cur := refRemoteEdges(p, i, masters[i], order, masters, overlay)
			bestNode, bestDelta := -1, math.MaxInt
			for c, cand := range active {
				if loads[c] >= theta || cand == masters[i] {
					continue
				}
				d := refRemoteEdges(p, i, cand, order, masters, overlay) - cur
				if d > delta {
					continue
				}
				if d < bestDelta || (d == bestDelta && loads[c] < loads[bestNode]) {
					bestNode, bestDelta = c, d
				}
			}
			if bestNode == -1 {
				continue
			}
			loads[xi]--
			loads[bestNode]++
			masters[i] = active[bestNode]
			for _, k := range order[i].WriteSet() {
				overlay[k] = active[bestNode]
			}
		}
	}
}

// refBestRouteFor allocates its per-node counters on every call.
func refBestRouteFor(p *Prescient, r *tx.Request, overlay map[tx.Key]tx.NodeID, active []tx.NodeID, nodeIdx map[tx.NodeID]int) (score, int) {
	reads := r.ReadSet()
	writes := r.WriteSet()
	readCounts := make([]int, len(active))
	writeCounts := make([]int, len(active))
	owner := func(k tx.Key) int {
		o, ok := overlay[k]
		if !ok {
			o = p.pl.Owner(k)
		}
		if i, ok := nodeIdx[o]; ok {
			return i
		}
		return -1
	}
	for _, k := range reads {
		if i := owner(k); i >= 0 {
			readCounts[i]++
		}
	}
	for _, k := range writes {
		if i := owner(k); i >= 0 {
			writeCounts[i]++
		}
	}
	best := score{}
	bestAt := -1
	for i := range active {
		s := score{
			remoteReads: len(reads) - readCounts[i],
			migrations:  len(writes) - writeCounts[i],
			node:        i,
		}
		if bestAt == -1 || s.less(best) {
			best, bestAt = s, i
		}
	}
	return best, bestAt
}

// refRemoteEdges is the one-(transaction,node) remote-edge count (§3.2.2):
// remote reads of order[i] under the current placement plus later in-batch
// reads of its write-set not mastered at x; keys both read and written
// travel with the transaction and are excluded from the first term.
func refRemoteEdges(p *Prescient, i int, x tx.NodeID, order []*tx.Request, masters []tx.NodeID, overlay map[tx.Key]tx.NodeID) int {
	ti := order[i]
	writes := ti.WriteSet()
	edges := 0
	for _, k := range ti.ReadSet() {
		if tx.ContainsKey(writes, k) {
			continue
		}
		o, ok := overlay[k]
		if !ok {
			o = p.pl.Owner(k)
		}
		if o != x {
			edges++
		}
	}
	for j := i + 1; j < len(order); j++ {
		if masters[j] == x {
			continue
		}
		for _, k := range order[j].ReadSet() {
			if tx.ContainsKey(writes, k) {
				edges++
			}
		}
	}
	return edges
}

// refCommitRoute is the per-route-allocating final replay.
func refCommitRoute(p *Prescient, r *tx.Request, master tx.NodeID) *router.Route {
	access := r.AccessSet()
	owners := make(router.Owners, 0, len(access))
	for _, k := range access {
		owners.Set(k, p.pl.Owner(k))
	}
	route := &router.Route{Txn: r, Mode: router.SingleMaster, Master: master}

	var evicted []fusion.Entry
	for _, k := range r.WriteSet() {
		if !tx.ContainsKey(r.ReadSet(), k) && owners.Get(k) == p.pl.Home(k) && owners.Get(k) != master {
			if _, tracked := p.pl.Fusion.Get(k); !tracked {
				route.WriteBack = append(route.WriteBack, k)
				continue
			}
		}
		if o := owners.Get(k); o != master {
			route.Migrations = append(route.Migrations, router.Migration{Key: k, From: o, To: master})
		}
		if p.pl.Home(k) == master {
			p.pl.Fusion.Delete(k)
		} else {
			evicted = append(evicted, p.pl.Fusion.Put(k, master)...)
		}
	}
	for _, k := range r.ReadSet() {
		if !tx.ContainsKey(r.WriteSet(), k) {
			p.pl.Fusion.Touch(k)
		}
	}
	for _, e := range evicted {
		if _, tracked := p.pl.Fusion.Get(e.Key); tracked {
			continue
		}
		home := p.pl.Home(e.Key)
		if prevOwner, inAccess := owners.Lookup(e.Key); inAccess {
			from := prevOwner
			if tx.ContainsKey(r.WriteSet(), e.Key) {
				from = master
			}
			if from != home {
				route.Migrations = append(route.Migrations, router.Migration{Key: e.Key, From: from, To: home})
			}
			continue
		}
		if e.Owner == home {
			continue
		}
		owners.Set(e.Key, e.Owner)
		route.Migrations = append(route.Migrations, router.Migration{Key: e.Key, From: e.Owner, To: home})
	}
	route.Owners = owners
	return route
}
