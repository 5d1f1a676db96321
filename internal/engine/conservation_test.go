package engine

import (
	"math/rand"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/fusion"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/tx"
)

// checkRouteConservation simulates roleFor on every node for one route
// and verifies the message-flow invariants the executors rely on:
// every record a node expects has exactly one sender, and vice versa.
func checkRouteConservation(t *testing.T, c *Cluster, rt *router.Route) {
	t.Helper()
	if rt.Mode != router.SingleMaster {
		return
	}
	// Per-destination inbound record keys, from every node's role.
	inbound := map[tx.NodeID]map[tx.Key]int{}
	expected := map[tx.NodeID]int{}
	var sc roleScratch
	for id, n := range c.nodes {
		role := n.roleFor(rt, &sc, &batchArena{})
		expected[id] = role.expectRecords
		for _, p := range role.pushTo {
			if inbound[p.to] == nil {
				inbound[p.to] = map[tx.Key]int{}
			}
			for _, k := range p.keys {
				inbound[p.to][k]++
			}
		}
		// Master's outbound migrations also deliver records (post-exec).
		for _, m := range role.outMigrations {
			if inbound[m.To] == nil {
				inbound[m.To] = map[tx.Key]int{}
			}
			inbound[m.To][m.Key]++
		}
		// Write-backs from the master deliver records to owners.
		if role.isMaster {
			for _, k := range rt.WriteBack {
				owner := rt.Owners.Get(k)
				if owner != id {
					if inbound[owner] == nil {
						inbound[owner] = map[tx.Key]int{}
					}
					inbound[owner][k]++
				}
			}
		}
	}
	for id := range c.nodes {
		distinct := len(inbound[id])
		if distinct < expected[id] {
			t.Fatalf("route txn %d: node %d expects %d records but only %d distinct keys are sent to it\nroute: master=%d owners=%v migrations=%v writeback=%v",
				rt.Txn.ID, id, expected[id], distinct, rt.Master, rt.Owners, rt.Migrations, rt.WriteBack)
		}
	}
}

// TestRouteConservationFuzz drives the prescient router (with a tiny
// fusion table so self-evictions occur) through random batches and
// checks every produced route satisfies the conservation invariant.
func TestRouteConservationFuzz(t *testing.T) {
	base := partition.NewUniformRange(0, testRows, 4)
	pf := func(a []tx.NodeID) router.Policy {
		return core.New(base, a, core.Config{Alpha: 0, FusionCapacity: 3, FusionPolicy: fusion.FIFO})
	}
	c := newTestCluster(t, 4, pf)
	pol := c.nodes[0].policy
	rng := rand.New(rand.NewSource(21))
	var id tx.TxnID = 1
	for batch := 0; batch < 200; batch++ {
		var txns []*tx.Request
		for i := 0; i < 6; i++ {
			nKeys := 1 + rng.Intn(4)
			var rs, ws []tx.Key
			for j := 0; j < nKeys; j++ {
				k := tx.MakeKey(0, uint64(rng.Intn(testRows)))
				rs = append(rs, k)
				if rng.Intn(3) > 0 {
					ws = append(ws, k)
				}
			}
			if rng.Intn(4) == 0 { // blind write occasionally
				ws = append(ws, tx.MakeKey(0, uint64(rng.Intn(testRows))))
			}
			txns = append(txns, tx.NewRequest(id, &tx.CounterProc{Reads: rs, Writes: ws}))
			id++
		}
		for _, rt := range pol.RouteUser(txns) {
			checkRouteConservation(t, c, rt)
		}
	}
}

// TestStorageConservationAcrossMigrations checks the storage-level
// counterpart of route conservation: however records move — policy-driven
// migrations (LEAP/Hermes), write-backs (G-Store+), or explicit cold
// migration transactions — the cluster-wide record count and byte volume
// must stay exactly what was loaded. A record duplicated or lost in
// transit shows up here as a total that drifted.
func TestStorageConservationAcrossMigrations(t *testing.T) {
	for name, pf := range policies(3) {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, 3, pf)
			loadCounters(c, testRows)
			wantRecords := testRows
			wantBytes := int64(testRows * 8) // loadCounters writes 8-byte values
			if got := c.TotalBytes(); got != wantBytes {
				t.Fatalf("loaded bytes = %d, want %d", got, wantBytes)
			}
			// Cross-partition traffic: value-size-preserving increments over
			// skewed keys, so look-present policies migrate and Hermes fuses.
			// The increments stay below row 120 so they can never re-migrate
			// the explicitly moved block after its final hop.
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 90; i++ {
				k1 := tx.MakeKey(0, uint64(rng.Intn(120)))
				k2 := tx.MakeKey(0, uint64(rng.Intn(8))) // hot band
				if _, err := c.Submit(tx.NodeID(i%3), incProc(k1, k2)); err != nil {
					t.Fatal(err)
				}
			}
			// Explicit cold migrations bouncing one block between nodes while
			// the increments are still in flight.
			block := make([]tx.Key, 0, 40)
			for i := uint64(120); i < 160; i++ {
				block = append(block, tx.MakeKey(0, i))
			}
			for _, dest := range []tx.NodeID{1, 2, 0} {
				if err := c.SubmitAndWait(dest, &tx.MigrationProc{Keys: block, To: dest}); err != nil {
					t.Fatal(err)
				}
			}
			mustDrain(t, c, 30*time.Second)
			if got := c.TotalRecords(); got != wantRecords {
				t.Fatalf("record count not conserved: %d, want %d", got, wantRecords)
			}
			if got := c.TotalBytes(); got != wantBytes {
				t.Fatalf("byte volume not conserved: %d, want %d", got, wantBytes)
			}
			// The per-node digests must agree with the totals they summarize.
			var recs int
			var bytes int64
			for _, d := range c.NodeDigests() {
				recs += d.Records
				bytes += d.Bytes
			}
			if recs != wantRecords || bytes != wantBytes {
				t.Fatalf("NodeDigests sum = %d recs %d bytes, want %d/%d",
					recs, bytes, wantRecords, wantBytes)
			}
			// The explicit migrations must have ended with the block on node 0.
			if got := c.Node(0).Store(); got != nil {
				for _, k := range block {
					if _, ok := got.Read(k); !ok {
						t.Fatalf("migrated key %v missing from final destination", k)
					}
				}
			}
		})
	}
}
