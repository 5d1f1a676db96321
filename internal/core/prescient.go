// Package core implements the paper's primary contribution: the prescient
// transaction routing algorithm (§3.2, Algorithm 1). Looking at a whole
// totally ordered batch of future transactions at once, it jointly
// optimizes three concerns that previous systems handled separately:
//
//  1. distributed-transaction cost — transactions are reordered and routed
//     greedily to minimize remote reads against the *evolving* placement
//     (P₀ … P_b), so a record migrated by one transaction is reused by the
//     transactions that follow it (avoiding the ping-pong of Fig. 3);
//  2. load balance — step 3 reroutes transactions off overloaded nodes,
//     backward through the reordered batch, accepting a move only if it
//     adds at most δ remote edges, relaxing δ until the per-node load
//     bound θ = ⌈b/n·(1+α)⌉ holds;
//  3. data (re-)partitioning and live migration — written records migrate
//     to the master on the fly with the transaction itself (data fusion),
//     and the resulting fine-grained placement is tracked in the bounded,
//     deterministically evicted fusion table shared (by replication) with
//     every scheduler.
//
// Everything here is a pure function of the input batch stream, so every
// node's replica computes the identical plan with zero coordination.
//
// The implementation is built for the §3.2.4 envelope (routing a whole
// batch must cost a few milliseconds, ~4% of transaction latency):
// step 1 runs on a lazy-invalidation heap fed by an inverted access-set
// index instead of rescanning all pending candidates per pick, step 3
// evaluates δ-moves against a precomputed future-readers index instead of
// rescanning every later transaction, and all per-batch working state
// lives in scratch buffers reused across batches. The reference
// implementation these structures must stay byte-identical to is kept in
// reference_test.go and enforced by a differential property test; see
// docs/PERF.md for the complexity accounting.
package core

import (
	"math"

	"hermes/internal/fusion"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/tx"
)

// Config tunes the prescient router.
type Config struct {
	// Alpha is the load-imbalance tolerance in θ = ⌈b/n·(1+α)⌉ (§3.2.1).
	Alpha float64
	// FusionCapacity bounds the fusion table (entries); ≤ 0 = unbounded.
	// The paper expresses this as a fraction of the database (§4.1, §5.4).
	FusionCapacity int
	// FusionPolicy selects the deterministic replacement strategy.
	FusionPolicy fusion.Policy
}

// DefaultConfig returns the settings used by the paper's main experiments:
// α = 0 (strict balance) and an LRU-limited fusion table.
func DefaultConfig(fusionCapacity int) Config {
	return Config{Alpha: 0, FusionCapacity: fusionCapacity, FusionPolicy: fusion.LRU}
}

// Prescient is the Hermes routing policy. It implements router.Policy.
//
// A Prescient owns per-batch scratch buffers that RouteUser reuses across
// calls, so a Prescient is NOT safe for concurrent RouteUser invocations.
// The engine satisfies this by construction: each node's scheduler
// goroutine is the sole caller of its policy replica.
type Prescient struct {
	pl  *router.Placement
	cfg Config
	sc  scratch
}

// New returns a prescient router over base with the given active nodes.
func New(base partition.Partitioner, active []tx.NodeID, cfg Config) *Prescient {
	return &Prescient{
		pl:  router.NewPlacement(base, active, fusion.New(cfg.FusionCapacity, cfg.FusionPolicy)),
		cfg: cfg,
	}
}

// Placement implements router.Policy.
func (p *Prescient) Placement() *Placement { return p.pl }

// Placement is re-exported so callers needn't import router for the type.
type Placement = router.Placement

// keyPos is one entry of an inverted key index: a key paired with either
// the original batch index of a transaction accessing it (step 1) or the
// B′ position of a transaction reading it (step 3).
type keyPos struct {
	key tx.Key
	pos int32
}

// candidate caches a pending transaction's current best (score, node)
// during step 1.
type candidate struct {
	s    score
	node int
}

// scratch is the per-batch working state of Algorithm 1, owned by a
// Prescient and reused across batches so the hot path stays
// allocation-free at steady state. Nothing in here escapes into the
// returned routes (route output is carved from a fresh per-batch arena).
type scratch struct {
	// batch-wide
	nodeIdx map[tx.NodeID]int // node id -> index in active
	overlay map[tx.Key]tx.NodeID
	loads   []int
	order   []*tx.Request
	masters []tx.NodeID
	// step 1
	access  []keyPos // inverted index: (key, original index), sorted
	cands   []candidate
	taken   []bool
	heap    []heapEnt
	dirty   []int32  // candidates invalidated by the current pick
	dirtyIn []bool   // dedup for dirty
	sortTmp []keyPos // radix-sort scatter buffer
	// step 3
	future    []keyPos // future-readers index: (key, B′ position), sorted
	ownCount  []int    // per-node owned read-not-written keys
	cntMaster []int    // per-node later readers of the write-set
	edges     []int    // per-node remote edges, filled by remoteEdgesAll
	// bestRouteFor
	readCounts  []int
	writeCounts []int
	// commitRoute
	evicted []fusion.Entry
}

// heapEnt is one lazy-invalidation heap entry of step 1. Stale entries
// (the candidate was re-scored after this entry was pushed) are detected
// on pop by comparing against cands[s.pos] and discarded.
type heapEnt struct {
	s    score
	node int32
}

// RouteUser implements router.Policy: Algorithm 1 followed by the final
// placement replay that commits the batch's effects to the fusion table.
// Not safe for concurrent calls on one Prescient (see the type comment).
func (p *Prescient) RouteUser(txns []*tx.Request) []*router.Route {
	active := p.pl.Active()
	n := len(active)
	b := len(txns)
	if n == 0 || b == 0 {
		return nil
	}

	p.beginBatch(active, b)

	// ---- Step 1 (lines 4-9): greedy reorder + route minimizing remote
	// reads against the evolving placement. The overlay holds the
	// in-flight write-set migrations (P_i) without touching the real
	// fusion table yet.
	p.planGreedy(txns, active)

	// ---- Step 2 (lines 11-12) + Step 3 (lines 14-30).
	theta := int(math.Ceil(float64(b) / float64(n) * (1 + p.cfg.Alpha)))
	p.rebalance(p.sc.order, p.sc.masters, active, theta)

	// ---- Final replay: commit the routed schedule to the real placement
	// (fusion table), producing per-transaction owner maps, data-fusion
	// migrations, and eviction write-backs at each position in B′.
	ar := newRouteArena(p.sc.order)
	for i, r := range p.sc.order {
		p.commitRoute(r, p.sc.masters[i], ar)
	}
	// Drop the request pointers so scratch does not pin the previous
	// batch's transactions until the next call.
	routes := ar.ptrs
	for i := range p.sc.order {
		p.sc.order[i] = nil
	}
	return routes
}

// beginBatch resets the scratch buffers for a batch of b transactions
// over active.
func (p *Prescient) beginBatch(active []tx.NodeID, b int) {
	sc := &p.sc
	n := len(active)
	if sc.nodeIdx == nil {
		sc.nodeIdx = make(map[tx.NodeID]int, n)
	} else {
		clear(sc.nodeIdx)
	}
	for i, a := range active {
		sc.nodeIdx[a] = i
	}
	if sc.overlay == nil {
		sc.overlay = make(map[tx.Key]tx.NodeID)
	} else {
		clear(sc.overlay)
	}
	sc.loads = resetInts(sc.loads, n)
	sc.readCounts = resetInts(sc.readCounts, n)
	sc.writeCounts = resetInts(sc.writeCounts, n)
	sc.ownCount = resetInts(sc.ownCount, n)
	sc.cntMaster = resetInts(sc.cntMaster, n)
	sc.edges = resetInts(sc.edges, n)
	sc.order = sc.order[:0]
	sc.masters = sc.masters[:0]
	sc.access = sc.access[:0]
	sc.future = sc.future[:0]
	sc.heap = sc.heap[:0]
	sc.dirty = sc.dirty[:0]
	if cap(sc.cands) < b {
		sc.cands = make([]candidate, b)
		sc.taken = make([]bool, b)
		sc.dirtyIn = make([]bool, b)
	} else {
		sc.cands = sc.cands[:b]
		sc.taken = sc.taken[:b]
		sc.dirtyIn = sc.dirtyIn[:b]
		for i := 0; i < b; i++ {
			sc.taken[i] = false
			sc.dirtyIn[i] = false
		}
	}
}

// resetInts returns a zeroed int slice of length n reusing buf's storage.
func resetInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// planGreedy runs step 1 of Algorithm 1 (greedy reorder + route), filling
// sc.order, sc.masters, sc.loads, and sc.overlay.
//
// Candidate selection runs on a lazy-invalidation min-heap over the score
// total order: a pick pops the heap instead of rescanning all pending
// candidates (the reference implementation's O(b) inner loop). A selected
// transaction's write-set invalidates — through the inverted access-set
// index — exactly the candidates whose remote-read count can change;
// those are re-scored eagerly against the post-pick overlay and re-pushed,
// leaving their stale heap entries to be discarded on pop. Scores carry
// the original batch position as the final tie-break, so the total order
// is strict and the heap pops the same unique minimum the reference scan
// finds.
func (p *Prescient) planGreedy(txns []*tx.Request, active []tx.NodeID) {
	sc := &p.sc
	b := len(txns)

	// Inverted index over declared access sets. Keys in both sets appear
	// twice; invalidation dedups through dirtyIn.
	for i, r := range txns {
		for _, k := range r.ReadSet() {
			sc.access = append(sc.access, keyPos{key: k, pos: int32(i)})
		}
		for _, k := range r.WriteSet() {
			sc.access = append(sc.access, keyPos{key: k, pos: int32(i)})
		}
	}
	sc.sortKeyPos(sc.access)

	for i, r := range txns {
		s, x := p.bestRouteFor(r, active)
		s.pos = i
		sc.cands[i] = candidate{s: s, node: x}
		p.heapPush(heapEnt{s: s, node: int32(x)})
	}

	for picked := 0; picked < b; picked++ {
		var best int
		for {
			ent := p.heapPop()
			i := ent.s.pos
			if sc.taken[i] || sc.cands[i].s != ent.s || sc.cands[i].node != int(ent.node) {
				continue // stale entry superseded by a re-score
			}
			best = i
			break
		}
		r := txns[best]
		sc.taken[best] = true
		node := sc.cands[best].node
		sc.order = append(sc.order, r)
		sc.masters = append(sc.masters, active[node])
		sc.loads[node]++

		// Commit the pick's write-set to the overlay, collecting the
		// pending candidates whose access sets intersect the changed
		// keys; re-score them only after the overlay holds the complete
		// post-pick placement.
		sc.dirty = sc.dirty[:0]
		for _, k := range r.WriteSet() {
			if sc.overlay[k] == active[node] {
				continue
			}
			sc.overlay[k] = active[node]
			for j := searchKey(sc.access, k); j < len(sc.access) && sc.access[j].key == k; j++ {
				ti := sc.access[j].pos
				if !sc.taken[ti] && !sc.dirtyIn[ti] {
					sc.dirtyIn[ti] = true
					sc.dirty = append(sc.dirty, ti)
				}
			}
		}
		for _, ti := range sc.dirty {
			sc.dirtyIn[ti] = false
			s, x := p.bestRouteFor(txns[ti], active)
			s.pos = int(ti)
			sc.cands[ti] = candidate{s: s, node: x}
			p.heapPush(heapEnt{s: s, node: int32(x)})
		}
	}
}

// rebalance runs steps 2 and 3 of Algorithm 1: it finds overloaded nodes
// (load > theta) and reroutes transactions off them, backward through B′,
// under a growing remote-edge budget δ. masters, sc.loads, and sc.overlay
// are mutated in place.
//
// Per-candidate costs are computed from a future-readers index built once
// per batch (remoteEdgesAll), the overload count is maintained
// incrementally, and a backward pass that moves nothing advances δ
// straight to the smallest budget that admits a new move (or exits if no
// budget does) — the reference implementation instead re-walks the batch
// for every δ up to a bound that includes |writes|·b.
func (p *Prescient) rebalance(order []*tx.Request, masters []tx.NodeID, active []tx.NodeID, theta int) {
	sc := &p.sc
	b := len(order)

	sc.future = sc.future[:0]
	for j, r := range order {
		for _, k := range r.ReadSet() {
			sc.future = append(sc.future, keyPos{key: k, pos: int32(j)})
		}
	}
	sc.sortKeyPos(sc.future)

	over := 0
	for _, l := range sc.loads {
		if l > theta {
			over++
		}
	}

	// maxDelta bounds the relaxation: once δ exceeds any possible edge
	// count the move is always allowed, guaranteeing termination.
	maxDelta := 1
	for _, r := range order {
		if e := len(r.ReadSet()) + len(r.WriteSet())*b; e > maxDelta {
			maxDelta = e
		}
	}
	for delta := 1; over > 0 && delta <= maxDelta; {
		moved := false
		minRejected := math.MaxInt // smallest edge delta the budget refused
		for i := b - 1; i >= 0 && over > 0; i-- {
			xi := sc.nodeIdx[masters[i]]
			if sc.loads[xi] <= theta {
				continue
			}
			p.remoteEdgesAll(i, order, masters, active)
			cur := sc.edges[xi]
			bestNode, bestDelta := -1, math.MaxInt
			for c := range active {
				if sc.loads[c] >= theta || active[c] == masters[i] {
					continue
				}
				d := sc.edges[c] - cur
				if d > delta {
					if d < minRejected {
						minRejected = d
					}
					continue
				}
				// Prefer fewer added edges, then the least-loaded target
				// (an empty, freshly provisioned node must win ties or
				// it never receives work), then node id for determinism.
				if d < bestDelta || (d == bestDelta && sc.loads[c] < sc.loads[bestNode]) {
					bestNode, bestDelta = c, d
				}
			}
			if bestNode == -1 {
				continue
			}
			moved = true
			if sc.loads[xi]-1 <= theta {
				over--
			}
			sc.loads[xi]--
			sc.loads[bestNode]++ // was < theta, stays ≤ theta
			masters[i] = active[bestNode]
			for _, k := range order[i].WriteSet() {
				sc.overlay[k] = active[bestNode]
			}
		}
		switch {
		case moved:
			delta++
		case minRejected == math.MaxInt || minRejected > maxDelta:
			// No move was blocked by the budget alone: a zero-move pass
			// at unbounded δ, so every later δ round is also a no-op.
			return
		default:
			// The pass changed nothing, so every δ below minRejected
			// replays it verbatim; jump to the first budget that admits
			// a previously refused move.
			delta = minRejected
		}
	}
}

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

// bestRouteFor evaluates r(x; T, P_i) for all active nodes and returns the
// best score with its active-node index. It reads the batch overlay and
// node index from scratch and reuses the per-node count buffers.
func (p *Prescient) bestRouteFor(r *tx.Request, active []tx.NodeID) (score, int) {
	sc := &p.sc
	reads := r.ReadSet()
	writes := r.WriteSet()
	rc, wc := sc.readCounts, sc.writeCounts
	for i := range rc {
		rc[i], wc[i] = 0, 0
	}
	for _, k := range reads {
		if i := p.ownerIdx(k); i >= 0 {
			rc[i]++
		}
	}
	for _, k := range writes {
		if i := p.ownerIdx(k); i >= 0 {
			wc[i]++
		}
	}
	best := score{}
	bestAt := -1
	for i := range active {
		s := score{
			remoteReads: len(reads) - rc[i],
			migrations:  len(writes) - wc[i],
			node:        i,
		}
		if bestAt == -1 || s.less(best) {
			best, bestAt = s, i
		}
	}
	return best, bestAt
}

// ownerIdx resolves k's owner under the batch overlay (falling back to
// the real placement) to an active-node index, or -1 if the owner is not
// active.
func (p *Prescient) ownerIdx(k tx.Key) int {
	o, ok := p.sc.overlay[k]
	if !ok {
		o = p.pl.Owner(k)
	}
	if i, ok := p.sc.nodeIdx[o]; ok {
		return i
	}
	return -1
}

// remoteEdgesAll computes the remote edges of routing order[i] to every
// active node at once (§3.2.2), into sc.edges: for node x, the remote
// reads of T_i under the current placement, plus the reads of T_i's
// write-set by later transactions in B′ not routed to x. Keys both read
// and written travel with T_i and are excluded from the first term.
//
// One pass over T_i's access set and over the future-readers index
// entries of its write-set accumulates per-node ownership and mastering
// counts; the per-node edge count is then a subtraction, replacing the
// reference implementation's per-node rescan of every later transaction.
func (p *Prescient) remoteEdgesAll(i int, order []*tx.Request, masters []tx.NodeID, active []tx.NodeID) {
	sc := &p.sc
	ti := order[i]
	reads := ti.ReadSet()
	writes := ti.WriteSet()
	own, cm := sc.ownCount, sc.cntMaster
	for c := range own {
		own[c], cm[c] = 0, 0
	}
	nReads := 0
	for _, k := range reads {
		if tx.ContainsKey(writes, k) {
			continue
		}
		nReads++
		if c := p.ownerIdx(k); c >= 0 {
			own[c]++
		}
	}
	nLater := 0
	for _, k := range writes {
		for j := searchKeyPos(sc.future, k, int32(i)+1); j < len(sc.future) && sc.future[j].key == k; j++ {
			nLater++
			cm[sc.nodeIdx[masters[sc.future[j].pos]]]++
		}
	}
	for c := range active {
		sc.edges[c] = (nReads - own[c]) + (nLater - cm[c])
	}
}

// sortKeyPos sorts an inverted index by (key, pos). Entries are appended
// in position order, so a stable sort by key alone yields the (key, pos)
// order the binary searches need; an LSD radix sort over the key bytes
// does that without a comparator call per comparison, and byte passes
// whose value is constant across the index (the table tag, uniform high
// bytes of a small key space) are skipped outright.
func (sc *scratch) sortKeyPos(ps []keyPos) {
	if len(ps) < 2 {
		return
	}
	if cap(sc.sortTmp) < len(ps) {
		sc.sortTmp = make([]keyPos, len(ps))
	}
	var counts [8][256]int
	for i := range ps {
		k := uint64(ps[i].key)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := ps, sc.sortTmp[:len(ps)]
	for pass := 0; pass < 8; pass++ {
		shift := uint(pass) * 8
		c := &counts[pass]
		if c[byte(uint64(src[0].key)>>shift)] == len(ps) {
			continue // every key shares this byte
		}
		sum := 0
		for i := range c {
			n := c[i]
			c[i] = sum
			sum += n
		}
		for _, e := range src {
			b := byte(uint64(e.key) >> shift)
			dst[c[b]] = e
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
}

// searchKey returns the first index in ps whose key is ≥ k.
func searchKey(ps []keyPos, k tx.Key) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchKeyPos returns the first index in ps at or after (k, pos).
func searchKeyPos(ps []keyPos, k tx.Key, pos int32) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].key < k || (ps[mid].key == k && ps[mid].pos < pos) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// heapPush adds e to the step-1 candidate heap.
func (p *Prescient) heapPush(e heapEnt) {
	h := append(p.sc.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].s.less(h[parent].s) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	p.sc.heap = h
}

// heapPop removes and returns the minimum-score entry.
func (p *Prescient) heapPop() heapEnt {
	h := p.sc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].s.less(h[smallest].s) {
			smallest = l
		}
		if r < len(h) && h[r].s.less(h[smallest].s) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	p.sc.heap = h
	return top
}

// routeArena bulk-allocates one batch's route output: the Route structs,
// their owner snapshots, migrations, and write-back lists are carved out
// of shared slabs instead of being allocated per route. Carved slices are
// three-index sliced (cap == len) so a later append can never alias a
// neighbour, and slab growth is safe because earlier carves keep the old
// backing array alive and complete.
type routeArena struct {
	routes []router.Route
	ptrs   []*router.Route
	owners []router.OwnerPair
	migs   []router.Migration
	wb     []tx.Key
}

// newRouteArena sizes an arena for the given reordered batch.
func newRouteArena(order []*tx.Request) *routeArena {
	ownersCap := 0
	for _, r := range order {
		ownersCap += len(r.ReadSet()) + len(r.WriteSet())
	}
	return &routeArena{
		routes: make([]router.Route, 0, len(order)),
		ptrs:   make([]*router.Route, 0, len(order)),
		owners: make([]router.OwnerPair, 0, ownersCap),
		migs:   make([]router.Migration, 0, len(order)),
	}
}

// lookupOwner finds k in the owner region starting at base, returning its
// position (or insertion point) and whether it is present.
func (a *routeArena) lookupOwner(base int, k tx.Key) (int, bool) {
	region := a.owners[base:]
	lo, hi := 0, len(region)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if region[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return base + lo, lo < len(region) && region[lo].Key == k
}

// setOwner inserts or updates k in the current route's owner region
// (starting at base), keeping it sorted by key.
func (a *routeArena) setOwner(base int, k tx.Key, n tx.NodeID) {
	at, found := a.lookupOwner(base, k)
	if found {
		a.owners[at].Node = n
		return
	}
	a.owners = append(a.owners, router.OwnerPair{})
	copy(a.owners[at+1:], a.owners[at:])
	a.owners[at] = router.OwnerPair{Key: k, Node: n}
}

// commitRoute applies one routed transaction to the real placement at its
// position in B′ and emits its execution route: owner snapshot, data-
// fusion migrations for the write-set, fusion-table bookkeeping with LRU
// touches for reads, and eviction migrations appended to this
// transaction's write path exactly as §4.1 prescribes. The route and its
// slices are carved from ar.
func (p *Prescient) commitRoute(r *tx.Request, master tx.NodeID, ar *routeArena) *router.Route {
	reads := r.ReadSet()
	writes := r.WriteSet()

	// Owner snapshot: merge the sorted read- and write-sets (the access
	// set, without materializing it) straight into the arena slab.
	oBase := len(ar.owners)
	ri, wi := 0, 0
	for ri < len(reads) || wi < len(writes) {
		var k tx.Key
		switch {
		case wi >= len(writes) || (ri < len(reads) && reads[ri] < writes[wi]):
			k = reads[ri]
			ri++
		case ri >= len(reads) || writes[wi] < reads[ri]:
			k = writes[wi]
			wi++
		default: // equal: one entry for a read+write key
			k = reads[ri]
			ri++
			wi++
		}
		ar.owners = append(ar.owners, router.OwnerPair{Key: k, Node: p.pl.Owner(k)})
	}

	ar.routes = ar.routes[:len(ar.routes)+1]
	route := &ar.routes[len(ar.routes)-1]
	route.Txn, route.Mode, route.Master = r, router.SingleMaster, master
	ar.ptrs = append(ar.ptrs, route)
	mBase := len(ar.migs)
	wbBase := len(ar.wb)

	evicted := p.sc.evicted[:0]
	for _, k := range writes {
		at, _ := ar.lookupOwner(oBase, k)
		owner := ar.owners[at].Node
		// Blind writes (keys written but never read — inserts such as
		// TPC-C order rows) are not fused: the new record is sent to its
		// home partition after execution. Fusing them would flood the
		// fusion table with never-reaccessed entries whose evictions
		// each cost a migration; keeping the table to genuinely hot
		// records is exactly its design intent (§4.1).
		if !tx.ContainsKey(reads, k) && owner == p.pl.Home(k) && owner != master {
			if _, tracked := p.pl.Fusion.Get(k); !tracked {
				ar.wb = append(ar.wb, k)
				continue
			}
		}
		if owner != master {
			ar.migs = append(ar.migs, router.Migration{Key: k, From: owner, To: master})
		}
		if p.pl.Home(k) == master {
			// The record is (back) at its cold home: drop any stale
			// fusion entry instead of spending table capacity on it.
			p.pl.Fusion.Delete(k)
		} else {
			evicted = append(evicted, p.pl.Fusion.Put(k, master)...)
		}
	}
	// LRU-touch read keys so hot read-mostly records stay tracked.
	for _, k := range reads {
		if !tx.ContainsKey(writes, k) {
			p.pl.Fusion.Touch(k)
		}
	}
	// Evicted records migrate back to their cold homes alongside this
	// transaction (its effective write-set grows, §4.1).
	for _, e := range evicted {
		if _, tracked := p.pl.Fusion.Get(e.Key); tracked {
			// A later write of this same transaction re-admitted the key
			// (evict-then-reinsert within one commit): the table tracks
			// it again, so no migration home happens.
			continue
		}
		home := p.pl.Home(e.Key)
		if at, inAccess := ar.lookupOwner(oBase, e.Key); inAccess {
			// The table is smaller than this transaction's own footprint
			// and evicted one of its keys. The record must still land at
			// its cold home or placement (which now falls back to home)
			// would point at nothing: written keys sit at the master
			// after execution, read-only keys never moved.
			from := ar.owners[at].Node
			if tx.ContainsKey(writes, e.Key) {
				from = master
			}
			if from != home {
				ar.migs = append(ar.migs, router.Migration{Key: e.Key, From: from, To: home})
			}
			continue
		}
		if e.Owner == home {
			continue
		}
		ar.setOwner(oBase, e.Key, e.Owner)
		ar.migs = append(ar.migs, router.Migration{Key: e.Key, From: e.Owner, To: home})
	}
	p.sc.evicted = evicted[:0]

	route.Owners = router.Owners(ar.owners[oBase:len(ar.owners):len(ar.owners)])
	if len(ar.migs) > mBase {
		route.Migrations = ar.migs[mBase:len(ar.migs):len(ar.migs)]
	} else {
		route.Migrations = nil
	}
	if len(ar.wb) > wbBase {
		route.WriteBack = ar.wb[wbBase:len(ar.wb):len(ar.wb)]
	} else {
		route.WriteBack = nil
	}
	return route
}
