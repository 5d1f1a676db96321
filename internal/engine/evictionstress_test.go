package engine

import (
	"sync"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/tx"
)

type recordingPolicy struct {
	router.Policy
	mu     *sync.Mutex
	routes map[tx.TxnID]*router.Route
}

func (r *recordingPolicy) RouteUser(txns []*tx.Request) []*router.Route {
	out := r.Policy.RouteUser(txns)
	r.mu.Lock()
	for _, rt := range out {
		r.routes[rt.Txn.ID] = rt
	}
	r.mu.Unlock()
	return out
}

// TestFusionEvictionStress is the regression test for a deadlock where a
// fusion eviction emitted for a key the same transaction later re-admitted
// produced a migration whose source had no record, wedging the
// destination's arrival role on a push that never came. On failure it
// dumps the stuck routes and lock holders.
func TestFusionEvictionStress(t *testing.T) {
	base := partition.NewUniformRange(0, testRows, 4)
	mu := &sync.Mutex{}
	routes := map[tx.TxnID]*router.Route{}
	first := true
	pf := func(a []tx.NodeID) router.Policy {
		p := core.New(base, a, core.DefaultConfig(testRows/4))
		if first {
			first = false
			return &recordingPolicy{Policy: p, mu: mu, routes: routes}
		}
		return p
	}
	c := newTestCluster(t, 4, pf)
	loadCounters(c, testRows)
	const txns = 400
	for i := 0; i < txns; i++ {
		k1 := tx.MakeKey(0, uint64(i%testRows))
		k2 := tx.MakeKey(0, uint64((i*37+11)%testRows))
		if _, err := c.Submit(tx.NodeID(i%4), incProc(k1, k2)); err != nil {
			t.Fatal(err)
		}
	}
	// On a failed drain, dump the route and lock state of whatever is stuck.
	defer func() {
		if !t.Failed() {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		c.mu.Lock()
		defer c.mu.Unlock()
		for id, rt := range routes {
			if _, waiting := c.waiters[clientKey{rt.Txn.Client, rt.Txn.ClientSeq}]; !waiting {
				continue
			}
			t.Logf("STUCK txn %d: master=%d owners=%v migrations=%v writeback=%v reads=%v writes=%v",
				id, rt.Master, rt.Owners, rt.Migrations, rt.WriteBack, rt.Txn.ReadSet(), rt.Txn.WriteSet())
			for nid, n := range c.nodes {
				t.Logf("  node %d holding=%v", nid, n.locks.Holding(id))
			}
		}
	}()
	mustDrain(t, c, 15*time.Second)
}
