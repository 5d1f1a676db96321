package migration

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hermes/internal/tx"
)

func TestClayNoPlanWhenBalanced(t *testing.T) {
	c := NewClay(10, 0.2, 8)
	active := []tx.NodeID{0, 1}
	owner := func(k tx.Key) tx.NodeID { return tx.NodeID(uint64(k) / 100 % 2) }
	for i := 0; i < 100; i++ {
		c.Observe(tx.NodeID(i%2), []tx.Key{tx.Key(i % 200)}, owner)
	}
	if moves := c.Plan(active); moves != nil {
		t.Fatalf("balanced load produced plan: %v", moves)
	}
}

func TestClayPlansMovesOffHotNode(t *testing.T) {
	c := NewClay(10, 0.2, 8)
	active := []tx.NodeID{0, 1}
	owner := func(k tx.Key) tx.NodeID {
		if k < 100 {
			return 0
		}
		return 1
	}
	// 90% of load on node 0, concentrated on ranges 0-3.
	for i := 0; i < 900; i++ {
		c.Observe(0, []tx.Key{tx.Key(i % 40)}, owner)
	}
	for i := 0; i < 100; i++ {
		c.Observe(1, []tx.Key{tx.Key(100 + i%40)}, owner)
	}
	moves := c.Plan(active)
	if len(moves) == 0 {
		t.Fatal("overloaded node produced no plan")
	}
	for _, m := range moves {
		if m.To != 1 {
			t.Fatalf("move %v targets the hot node", m)
		}
		if uint64(m.Range) >= 10 {
			t.Fatalf("move %v is not a hot range on node 0", m)
		}
	}
}

func TestClayClumpFollowsCoAccess(t *testing.T) {
	c := NewClay(10, 0.1, 2)
	active := []tx.NodeID{0, 1}
	owner := func(k tx.Key) tx.NodeID {
		if k < 1000 {
			return 0
		}
		return 1
	}
	// Four equally hot ranges on node 0 (tie broken to range 0); range 5
	// is co-accessed with range 0, ranges 2 and 9 are independent. One
	// range's heat (300) cannot cover the needed shed (400), so the clump
	// must grow — and it must grow along the co-access edge to range 5.
	for i := 0; i < 300; i++ {
		c.Observe(0, []tx.Key{tx.Key(1), tx.Key(51)}, owner) // ranges 0 and 5
	}
	for i := 0; i < 300; i++ {
		c.Observe(0, []tx.Key{tx.Key(21)}, owner) // range 2
	}
	for i := 0; i < 300; i++ {
		c.Observe(0, []tx.Key{tx.Key(91)}, owner) // range 9
	}
	for i := 0; i < 100; i++ {
		c.Observe(1, []tx.Key{tx.Key(1001)}, owner)
	}
	moves := c.Plan(active)
	if len(moves) != 2 {
		t.Fatalf("moves = %v, want hottest + co-accessed", moves)
	}
	got := map[RangeID]bool{moves[0].Range: true, moves[1].Range: true}
	if !got[0] || !got[5] {
		t.Fatalf("clump = %v, want ranges {0,5} (co-access), not the unrelated hot range", moves)
	}
}

func TestClayDeterministic(t *testing.T) {
	build := func() *Clay {
		c := NewClay(10, 0.1, 4)
		owner := func(k tx.Key) tx.NodeID { return tx.NodeID(uint64(k) / 500) }
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			a := tx.Key(rng.Intn(400))
			b := tx.Key(rng.Intn(1000))
			c.Observe(tx.NodeID(rng.Intn(2)*0), []tx.Key{a, b}, owner)
		}
		return c
	}
	m1 := build().Plan([]tx.NodeID{0, 1})
	m2 := build().Plan([]tx.NodeID{0, 1})
	if len(m1) != len(m2) {
		t.Fatalf("plans differ in length: %v vs %v", m1, m2)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("plans diverge at %d: %v vs %v", i, m1, m2)
		}
	}
}

func TestClayResetClearsWindow(t *testing.T) {
	c := NewClay(10, 0.1, 4)
	owner := func(tx.Key) tx.NodeID { return 0 }
	for i := 0; i < 100; i++ {
		c.Observe(0, []tx.Key{tx.Key(i % 30)}, owner)
	}
	c.Reset()
	if moves := c.Plan([]tx.NodeID{0, 1}); moves != nil {
		t.Fatalf("plan after reset: %v", moves)
	}
}

func TestClaySingleNodeNoPlan(t *testing.T) {
	c := NewClay(10, 0.1, 4)
	c.Observe(0, []tx.Key{1}, func(tx.Key) tx.NodeID { return 0 })
	if moves := c.Plan([]tx.NodeID{0}); moves != nil {
		t.Fatalf("single-node cluster produced plan: %v", moves)
	}
}

func TestMoveKeys(t *testing.T) {
	m := Move{Range: 3, To: 1}
	keys := m.Keys(10)
	if len(keys) != 10 || keys[0] != 30 || keys[9] != 39 {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestSchismSeparatesIndependentClusters(t *testing.T) {
	s := NewSchism()
	// Two co-access cliques that never touch each other: a 2-way
	// partitioning must not split either clique.
	cliqueA := []tx.Key{1, 2, 3}
	cliqueB := []tx.Key{100, 101, 102}
	for i := 0; i < 50; i++ {
		s.Observe(cliqueA)
		s.Observe(cliqueB)
	}
	assign := s.Partition(2, 0.2, 4)
	if len(assign) != 6 {
		t.Fatalf("assigned %d keys, want 6", len(assign))
	}
	if assign[1] != assign[2] || assign[2] != assign[3] {
		t.Fatalf("clique A split: %v", assign)
	}
	if assign[100] != assign[101] || assign[101] != assign[102] {
		t.Fatalf("clique B split: %v", assign)
	}
	if assign[1] == assign[100] {
		t.Fatalf("cliques not separated (balance violated): %v", assign)
	}
	if cut := s.CutCost(assign, nil); cut != 0 {
		t.Fatalf("cut = %d, want 0", cut)
	}
}

func TestSchismBalance(t *testing.T) {
	s := NewSchism()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a := tx.Key(rng.Intn(200))
		b := tx.Key(rng.Intn(200))
		s.Observe([]tx.Key{a, b})
	}
	assign := s.Partition(4, 0.1, 4)
	loads := map[tx.NodeID]int{}
	total := 0
	for k, p := range assign {
		loads[p] += s.weight[k]
		total += s.weight[k]
	}
	maxAllowed := float64(total) / 4 * 1.35 // slack + integer fallback headroom
	for p, l := range loads {
		if float64(l) > maxAllowed {
			t.Fatalf("partition %d weight %d exceeds balance bound %f", p, l, maxAllowed)
		}
	}
}

func TestSchismRefinementReducesCut(t *testing.T) {
	build := func() *Schism {
		s := NewSchism()
		rng := rand.New(rand.NewSource(11))
		// Community structure: intra-group pairs 4x more likely.
		for i := 0; i < 3000; i++ {
			g := rng.Intn(2)
			a := tx.Key(g*100 + rng.Intn(100))
			var b tx.Key
			if rng.Intn(5) == 0 {
				b = tx.Key((1-g)*100 + rng.Intn(100))
			} else {
				b = tx.Key(g*100 + rng.Intn(100))
			}
			s.Observe([]tx.Key{a, b})
		}
		return s
	}
	s1 := build()
	noRefine := s1.Partition(2, 0.15, 0)
	s2 := build()
	refined := s2.Partition(2, 0.15, 6)
	if s2.CutCost(refined, nil) > s1.CutCost(noRefine, nil) {
		t.Fatalf("refinement increased cut: %d > %d",
			s2.CutCost(refined, nil), s1.CutCost(noRefine, nil))
	}
}

func TestSchismDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		build := func() map[tx.Key]tx.NodeID {
			s := NewSchism()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				s.Observe([]tx.Key{tx.Key(rng.Intn(50)), tx.Key(rng.Intn(50))})
			}
			return s.Partition(3, 0.2, 3)
		}
		a, b := build(), build()
		if len(a) != len(b) {
			return false
		}
		for k, p := range a {
			if b[k] != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSchismEmptyTrace(t *testing.T) {
	s := NewSchism()
	if got := s.Partition(3, 0.1, 2); len(got) != 0 {
		t.Fatalf("empty trace assigned %d keys", len(got))
	}
}

func TestSchismPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	NewSchism().Partition(0, 0.1, 1)
}

func TestSquallChunks(t *testing.T) {
	sq := NewSquall(3)
	keys := []tx.Key{1, 2, 3, 4, 5, 6, 7}
	chunks := sq.Chunks(keys, 2)
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		if c.To != 2 {
			t.Fatalf("chunk destination = %d", c.To)
		}
		total += len(c.Keys)
	}
	if total != 7 {
		t.Fatalf("chunked %d keys, want 7", total)
	}
	if len(chunks[2].Keys) != 1 || chunks[2].Keys[0] != 7 {
		t.Fatalf("last chunk = %v", chunks[2].Keys)
	}
}

func TestSquallDefaultChunkSize(t *testing.T) {
	if NewSquall(0).ChunkSize != 1000 {
		t.Fatal("default chunk size not applied")
	}
}

func TestSquallChunksEveryKeyOnceProperty(t *testing.T) {
	f := func(nRaw uint8, szRaw uint8) bool {
		n := int(nRaw)
		size := int(szRaw%16) + 1
		keys := make([]tx.Key, n)
		for i := range keys {
			keys[i] = tx.Key(i)
		}
		seen := map[tx.Key]int{}
		for _, c := range NewSquall(size).Chunks(keys, 0) {
			if len(c.Keys) > size {
				return false
			}
			for _, k := range c.Keys {
				seen[k]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
