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
// batch must cost a few milliseconds, ~4% of transaction latency). Each
// batch is routed on a batch-local key dictionary: every distinct key gets
// a dense ordinal, and its owner, home and fusion residency are resolved
// once. Step 1 then runs on a lazy-invalidation heap of candidate
// choices, re-scoring only the transactions that touch a moved key; step 3
// evaluates δ-moves against the later readers of each ordinal instead of
// rescanning every later transaction; and the final replay reads
// ownership from the dictionary, keeping it current as it changes the
// fusion table. All per-batch working state lives in scratch buffers
// reused across batches. The reference implementation these structures
// must stay byte-identical to is kept in reference_test.go and enforced
// by differential tests; see docs/PERF.md for the complexity accounting.
package core

import (
	"math"
	"slices"

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

// use is one key of a transaction's access set, in key order: the key's
// ordinal in the batch dictionary and how the transaction uses it.
type use struct {
	ord         int32
	read, write bool
}

// dictSlot is one open-addressing slot of the key dictionary. A slot is
// occupied only if gen matches the dictionary's current generation, so a
// new batch empties the table by bumping the generation.
type dictSlot struct {
	key tx.Key
	gen uint32
	ord int32
}

// groups lists positions per ordinal, built by a counting pass: reset,
// count every (ordinal, position) pair, start, then add the same pairs in
// the same order. The positions of ordinal o are then pos[off[o]:off[o+1]],
// in the order they were added.
type groups struct {
	off []int32
	pos []int32
}

func (g *groups) reset(ords int) {
	g.off = append(g.off[:0], make([]int32, ords+2)...)
}

func (g *groups) count(o int32) { g.off[o+2]++ }

func (g *groups) start() {
	for i := 1; i < len(g.off); i++ {
		g.off[i] += g.off[i-1]
	}
	g.pos = append(g.pos[:0], make([]int32, g.off[len(g.off)-1])...)
}

func (g *groups) add(o, pos int32) {
	g.pos[g.off[o+1]] = pos
	g.off[o+1]++
}

func (g *groups) of(o int32) []int32 { return g.pos[g.off[o]:g.off[o+1]] }

// scratch is the per-batch working state of Algorithm 1, owned by a
// Prescient and reused across batches so the hot path stays
// allocation-free at steady state. Nothing in here escapes into the
// returned routes (route output is carved from a fresh per-batch arena).
//
// Every distinct key of the batch has a dense ordinal in the dictionary,
// and its placement is resolved once per batch into the per-ordinal
// arrays; the steps below read and write those arrays instead of looking
// keys up again.
type scratch struct {
	// key dictionary: open addressing over the first 1<<bits slots
	dict []dictSlot
	bits uint
	gen  uint32
	// per ordinal: the effective owner while planning (active-node index,
	// -1 if not active), and the real owner, home and fusion residency the
	// final replay reads and keeps current
	eff     []int32
	owner   []tx.NodeID
	home    []tx.NodeID
	tracked []bool
	// per transaction (original index t): uses[useOff[t]:useOff[t+1]]
	uses   []use
	useOff []int32
	// B′: original index and active-node index of the master per position
	loads   []int
	order   []int32
	masters []int32
	// step 1
	touch   groups // transactions touching each ordinal
	cands   []choice
	taken   []bool
	heap    []choice
	dirty   []int32 // candidates invalidated by the current pick
	dirtyIn []bool  // dedup for dirty
	// step 3
	readers   groups // B′ positions reading each ordinal, ascending
	ownCount  []int  // per-node owned read-not-written keys
	cntMaster []int  // per-node later readers of the write-set
	edges     []int  // per-node remote edges, filled by remoteEdgesAll
	// bestRoute
	readCounts  []int
	writeCounts []int
	// commitRoute
	evicted []fusion.Entry
}

// choice is a step-1 candidate: routing the transaction at original index
// txn to active-node index node, at the cost of reads remote reads
// r(x; T, P_i) and migs write migrations.
type choice struct {
	reads, migs int
	at          uint64 // node<<32 | txn
}

func (c choice) node() int32 { return int32(c.at >> 32) }
func (c choice) txn() int32  { return int32(c.at) }

// before reports whether c is picked before o: fewest remote reads, then
// fewest write migrations, then lowest node index (determinism), then
// earliest batch position (stability), so no two candidates tie. Load
// does not participate — Algorithm 1 defers all balancing to step 3.
func (c choice) before(o choice) bool {
	if c.reads != o.reads {
		return c.reads < o.reads
	}
	if c.migs != o.migs {
		return c.migs < o.migs
	}
	return c.at < o.at
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

	p.beginBatch(txns, active)

	// ---- Step 1 (lines 4-9): greedy reorder + route minimizing remote
	// reads against the evolving placement P_i, held in the dictionary's
	// effective owners without touching the real fusion table yet.
	p.planGreedy()

	// ---- Step 2 (lines 11-12) + Step 3 (lines 14-30).
	theta := int(math.Ceil(float64(b) / float64(n) * (1 + p.cfg.Alpha)))
	p.rebalance(txns, theta)

	// ---- Final replay: commit the routed schedule to the real placement
	// (fusion table), producing per-transaction owner maps, data-fusion
	// migrations, and eviction write-backs at each position in B′.
	ar := newRouteArena(txns)
	for i, t := range p.sc.order {
		p.commitRoute(txns[t], p.sc.usesOf(t), active[p.sc.masters[i]], ar)
	}
	return ar.ptrs
}

// beginBatch resets the scratch buffers for a batch over active and
// builds its key dictionary.
func (p *Prescient) beginBatch(txns []*tx.Request, active []tx.NodeID) {
	sc := &p.sc
	n, b := len(active), len(txns)
	sc.loads = resetInts(sc.loads, n)
	sc.readCounts = resetInts(sc.readCounts, n)
	sc.writeCounts = resetInts(sc.writeCounts, n)
	sc.ownCount = resetInts(sc.ownCount, n)
	sc.cntMaster = resetInts(sc.cntMaster, n)
	sc.edges = resetInts(sc.edges, n)
	sc.order = sc.order[:0]
	sc.masters = sc.masters[:0]
	sc.heap = sc.heap[:0]
	sc.dirty = sc.dirty[:0]
	sc.cands = append(sc.cands[:0], make([]choice, b)...)
	sc.taken = append(sc.taken[:0], make([]bool, b)...)
	sc.dirtyIn = append(sc.dirtyIn[:0], make([]bool, b)...)
	p.index(txns, active)
}

// resetInts returns a zeroed int slice of length n reusing buf's storage.
func resetInts(buf []int, n int) []int {
	return append(buf[:0], make([]int, n)...)
}

// index builds the batch's key dictionary: an ordinal for every distinct
// key with its placement resolved, each transaction's uses, and the
// transactions touching each ordinal.
func (p *Prescient) index(txns []*tx.Request, active []tx.NodeID) {
	sc := &p.sc
	total := 0
	for _, r := range txns {
		total += len(r.AccessSet())
	}
	sc.bits = 4
	for 1<<sc.bits < 2*total {
		sc.bits++
	}
	if len(sc.dict) < 1<<sc.bits {
		sc.dict = make([]dictSlot, 1<<sc.bits)
	}
	if sc.gen++; sc.gen == 0 {
		clear(sc.dict) // a wrapped stamp would revive slots of old batches
		sc.gen = 1
	}
	sc.eff, sc.owner, sc.home, sc.tracked = sc.eff[:0], sc.owner[:0], sc.home[:0], sc.tracked[:0]
	sc.uses = sc.uses[:0]
	sc.useOff = append(sc.useOff[:0], 0)
	for _, r := range txns {
		reads, writes := r.ReadSet(), r.WriteSet()
		ri, wi := 0, 0
		for _, k := range r.AccessSet() {
			u := use{ord: p.intern(k, active)}
			if ri < len(reads) && reads[ri] == k {
				u.read = true
				ri++
			}
			if wi < len(writes) && writes[wi] == k {
				u.write = true
				wi++
			}
			sc.uses = append(sc.uses, u)
		}
		sc.useOff = append(sc.useOff, int32(len(sc.uses)))
	}
	sc.touch.reset(len(sc.eff))
	for _, u := range sc.uses {
		sc.touch.count(u.ord)
	}
	sc.touch.start()
	for t := range txns {
		for _, u := range sc.usesOf(int32(t)) {
			sc.touch.add(u.ord, int32(t))
		}
	}
}

// usesOf returns the uses of the transaction at original index t.
func (sc *scratch) usesOf(t int32) []use { return sc.uses[sc.useOff[t]:sc.useOff[t+1]] }

// slot returns k's dictionary slot, or the empty slot where k belongs.
func (sc *scratch) slot(k tx.Key) *dictSlot {
	mask := 1<<sc.bits - 1
	for i := int(uint64(k) * 0x9e3779b97f4a7c15 >> (64 - sc.bits)); ; i = (i + 1) & mask {
		if s := &sc.dict[i]; s.gen != sc.gen || s.key == k {
			return s
		}
	}
}

// lookup returns k's ordinal, if k is in the batch.
func (sc *scratch) lookup(k tx.Key) (int32, bool) {
	s := sc.slot(k)
	return s.ord, s.gen == sc.gen
}

// intern returns k's ordinal, adding k and resolving its placement the
// first time the batch mentions it.
func (p *Prescient) intern(k tx.Key, active []tx.NodeID) int32 {
	sc := &p.sc
	s := sc.slot(k)
	if s.gen == sc.gen {
		return s.ord
	}
	o := int32(len(sc.eff))
	*s = dictSlot{key: k, gen: sc.gen, ord: o}
	home := p.pl.Home(k)
	owner, tracked := p.pl.Fusion.Get(k)
	if !tracked {
		owner = home
	}
	eff, ok := slices.BinarySearch(active, owner)
	if !ok {
		eff = -1
	}
	sc.eff = append(sc.eff, int32(eff))
	sc.owner = append(sc.owner, owner)
	sc.home = append(sc.home, home)
	sc.tracked = append(sc.tracked, tracked)
	return o
}

// untrack records that the fusion table no longer holds ordinal o, so
// the record sits at its home.
func (sc *scratch) untrack(o int32) {
	sc.tracked[o], sc.owner[o] = false, sc.home[o]
}

// planGreedy runs step 1 of Algorithm 1 (greedy reorder + route), filling
// sc.order, sc.masters, sc.loads, and the effective owners.
//
// Candidate selection runs on a lazy-invalidation min-heap of choices: a
// pick pops the heap instead of rescanning all pending
// candidates (the reference implementation's O(b) inner loop). A
// selected transaction's write-set invalidates exactly the candidates
// touching a key whose effective owner changed; those are re-scored
// eagerly against the post-pick placement and re-pushed, leaving their
// stale heap entries to be discarded on pop. Choices never tie, so the
// heap pops the same minimum the reference scan finds.
func (p *Prescient) planGreedy() {
	sc := &p.sc
	b := len(sc.cands)
	for t := range sc.cands {
		sc.cands[t] = p.bestRoute(int32(t))
		sc.heapPush(sc.cands[t])
	}

	for picked := 0; picked < b; picked++ {
		s := sc.heapPop()
		for sc.taken[s.txn()] || sc.cands[s.txn()] != s {
			s = sc.heapPop() // stale entry superseded by a re-score
		}
		t, node := s.txn(), s.node()
		sc.taken[t] = true
		sc.order = append(sc.order, t)
		sc.masters = append(sc.masters, node)
		sc.loads[node]++

		// Move the pick's write-set, collecting the pending candidates
		// that touch a moved key; re-score them only once the effective
		// owners hold the complete post-pick placement.
		sc.dirty = sc.dirty[:0]
		for _, u := range sc.usesOf(t) {
			if !u.write || sc.eff[u.ord] == node {
				continue
			}
			sc.eff[u.ord] = node
			for _, c := range sc.touch.of(u.ord) {
				if !sc.taken[c] && !sc.dirtyIn[c] {
					sc.dirtyIn[c] = true
					sc.dirty = append(sc.dirty, c)
				}
			}
		}
		for _, c := range sc.dirty {
			sc.dirtyIn[c] = false
			sc.cands[c] = p.bestRoute(c)
			sc.heapPush(sc.cands[c])
		}
	}
}

// rebalance runs steps 2 and 3 of Algorithm 1: it finds overloaded nodes
// (load > theta) and reroutes transactions off them, backward through B′,
// under a growing remote-edge budget δ. sc.masters, sc.loads, and the
// effective owners are mutated in place.
//
// Per-candidate costs are computed from the later-readers index
// (remoteEdgesAll), the overload count is maintained incrementally, and a
// backward pass that moves nothing advances δ straight to the smallest
// budget that admits a new move (or exits if no budget does) — the
// reference implementation instead re-walks the batch for every δ up to
// a bound that includes |writes|·b.
func (p *Prescient) rebalance(txns []*tx.Request, theta int) {
	sc := &p.sc
	b := len(sc.order)
	over := 0
	for _, l := range sc.loads {
		if l > theta {
			over++
		}
	}
	if over == 0 {
		return
	}
	p.indexReaders()

	// maxDelta bounds the relaxation: once δ exceeds any possible edge
	// count the move is always allowed, guaranteeing termination.
	maxDelta := 1
	for _, r := range txns {
		if e := len(r.ReadSet()) + len(r.WriteSet())*b; e > maxDelta {
			maxDelta = e
		}
	}
	for delta := 1; over > 0 && delta <= maxDelta; {
		moved := false
		minRejected := math.MaxInt // smallest edge delta the budget refused
		for i := b - 1; i >= 0 && over > 0; i-- {
			xi := int(sc.masters[i])
			if sc.loads[xi] <= theta {
				continue
			}
			p.remoteEdgesAll(i)
			cur := sc.edges[xi]
			bestNode, bestDelta := -1, math.MaxInt
			for c, load := range sc.loads {
				if load >= theta || c == xi {
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
				if d < bestDelta || (d == bestDelta && load < sc.loads[bestNode]) {
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
			sc.masters[i] = int32(bestNode)
			for _, u := range sc.usesOf(sc.order[i]) {
				if u.write {
					sc.eff[u.ord] = int32(bestNode)
				}
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

// indexReaders lists, per ordinal, the B′ positions of the transactions
// reading it.
func (p *Prescient) indexReaders() {
	sc := &p.sc
	sc.readers.reset(len(sc.eff))
	for _, t := range sc.order {
		for _, u := range sc.usesOf(t) {
			if u.read {
				sc.readers.count(u.ord)
			}
		}
	}
	sc.readers.start()
	for j, t := range sc.order {
		for _, u := range sc.usesOf(t) {
			if u.read {
				sc.readers.add(u.ord, int32(j))
			}
		}
	}
}

// bestRoute evaluates r(x; T, P_i) for the transaction at original index
// t on all active nodes and returns the choice picked first.
func (p *Prescient) bestRoute(t int32) choice {
	sc := &p.sc
	rc, wc := sc.readCounts, sc.writeCounts
	clear(rc)
	clear(wc)
	reads, writes := 0, 0
	for _, u := range sc.usesOf(t) {
		x := sc.eff[u.ord]
		if u.read {
			reads++
			if x >= 0 {
				rc[x]++
			}
		}
		if u.write {
			writes++
			if x >= 0 {
				wc[x]++
			}
		}
	}
	best := choice{reads: reads - rc[0], migs: writes - wc[0], at: uint64(t)}
	for x := 1; x < len(rc); x++ {
		if c := (choice{reads: reads - rc[x], migs: writes - wc[x], at: uint64(x)<<32 | uint64(t)}); c.before(best) {
			best = c
		}
	}
	return best
}

// remoteEdgesAll computes the remote edges of routing the transaction at
// B′ position i to every active node at once (§3.2.2), into sc.edges: for
// node x, the remote reads of T_i under the current placement, plus the
// reads of T_i's write-set by later transactions in B′ not routed to x.
// Keys both read and written travel with T_i and are excluded from the
// first term.
//
// One pass over T_i's uses and over the later readers of its write-set
// accumulates per-node ownership and mastering counts; the per-node edge
// count is then a subtraction, replacing the reference implementation's
// per-node rescan of every later transaction.
func (p *Prescient) remoteEdgesAll(i int) {
	sc := &p.sc
	own, cm := sc.ownCount, sc.cntMaster
	clear(own)
	clear(cm)
	nReads, nLater := 0, 0
	for _, u := range sc.usesOf(sc.order[i]) {
		switch {
		case u.write:
			later := sc.readers.of(u.ord)
			from, _ := slices.BinarySearch(later, int32(i)+1)
			for _, j := range later[from:] {
				cm[sc.masters[j]]++
			}
			nLater += len(later) - from
		case u.read:
			nReads++
			if c := sc.eff[u.ord]; c >= 0 {
				own[c]++
			}
		}
	}
	for c := range sc.edges {
		sc.edges[c] = (nReads - own[c]) + (nLater - cm[c])
	}
}

// heapPush adds a choice to the step-1 candidate heap.
func (sc *scratch) heapPush(s choice) {
	h := append(sc.heap, s)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	sc.heap = h
}

// heapPop removes and returns the choice picked first.
func (sc *scratch) heapPop() choice {
	h := sc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].before(h[smallest]) {
			smallest = l
		}
		if r < len(h) && h[r].before(h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	sc.heap = h
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

// newRouteArena sizes an arena for the given batch.
func newRouteArena(txns []*tx.Request) *routeArena {
	ownersCap := 0
	for _, r := range txns {
		ownersCap += len(r.ReadSet()) + len(r.WriteSet())
	}
	return &routeArena{
		routes: make([]router.Route, 0, len(txns)),
		ptrs:   make([]*router.Route, 0, len(txns)),
		owners: make([]router.OwnerPair, 0, ownersCap),
		migs:   make([]router.Migration, 0, len(txns)),
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

// commitRoute applies one routed transaction, whose uses are given, to
// the real placement at its position in B′ and emits its execution
// route: owner snapshot, data-fusion migrations for the write-set,
// fusion-table bookkeeping with LRU touches for reads, and eviction
// migrations appended to this transaction's write path exactly as §4.1
// prescribes. Ownership comes from the batch dictionary, which every
// fusion-table change here keeps current. The route and its slices are
// carved from ar.
func (p *Prescient) commitRoute(r *tx.Request, uses []use, master tx.NodeID, ar *routeArena) *router.Route {
	sc := &p.sc
	keys := r.AccessSet()
	oBase := len(ar.owners)
	for j, u := range uses {
		ar.owners = append(ar.owners, router.OwnerPair{Key: keys[j], Node: sc.owner[u.ord]})
	}

	ar.routes = ar.routes[:len(ar.routes)+1]
	route := &ar.routes[len(ar.routes)-1]
	route.Txn, route.Mode, route.Master = r, router.SingleMaster, master
	ar.ptrs = append(ar.ptrs, route)
	mBase := len(ar.migs)
	wbBase := len(ar.wb)

	evicted := sc.evicted[:0]
	for j, u := range uses {
		if !u.write {
			continue
		}
		k, o := keys[j], u.ord
		// The snapshot, not the dictionary: an earlier Put of this
		// transaction may have evicted k since.
		owner := ar.owners[oBase+j].Node
		// Blind writes (keys written but never read — inserts such as
		// TPC-C order rows) are not fused: the new record is sent to its
		// home partition after execution. Fusing them would flood the
		// fusion table with never-reaccessed entries whose evictions
		// each cost a migration; keeping the table to genuinely hot
		// records is exactly its design intent (§4.1).
		if !u.read && owner == sc.home[o] && owner != master && !sc.tracked[o] {
			ar.wb = append(ar.wb, k)
			continue
		}
		if owner != master {
			ar.migs = append(ar.migs, router.Migration{Key: k, From: owner, To: master})
		}
		if sc.home[o] == master {
			// The record is (back) at its cold home: drop any stale
			// fusion entry instead of spending table capacity on it.
			if sc.tracked[o] {
				p.pl.Fusion.Delete(k)
				sc.untrack(o)
			}
			continue
		}
		out := p.pl.Fusion.Put(k, master)
		sc.tracked[o], sc.owner[o] = true, master
		for _, e := range out {
			if eo, ok := sc.lookup(e.Key); ok {
				sc.untrack(eo)
			}
		}
		evicted = append(evicted, out...)
	}
	// LRU-touch read keys so hot read-mostly records stay tracked.
	for j, u := range uses {
		if u.read && !u.write && sc.tracked[u.ord] {
			p.pl.Fusion.Touch(keys[j])
		}
	}
	// Evicted records migrate back to their cold homes alongside this
	// transaction (its effective write-set grows, §4.1).
	for _, e := range evicted {
		eo, inBatch := sc.lookup(e.Key)
		if inBatch && sc.tracked[eo] {
			// A later write of this same transaction re-admitted the key
			// (evict-then-reinsert within one commit): the table tracks
			// it again, so no migration home happens.
			continue
		}
		var home tx.NodeID
		if inBatch {
			home = sc.home[eo]
		} else {
			home = p.pl.Home(e.Key)
		}
		if at, inAccess := ar.lookupOwner(oBase, e.Key); inAccess {
			// The table is smaller than this transaction's own footprint
			// and evicted one of its keys. The record must still land at
			// its cold home or placement (which now falls back to home)
			// would point at nothing: written keys sit at the master
			// after execution, read-only keys never moved.
			from := ar.owners[at].Node
			if tx.ContainsKey(r.WriteSet(), e.Key) {
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
	sc.evicted = evicted[:0]

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
