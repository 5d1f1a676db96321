package harness

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/engine"
	"hermes/internal/tx"
)

// TestSeedPostsEveryWorkerAtOnce pins Cluster.Seed's contract. Over three
// NodeServers in this process it seeds each worker's range share and
// checks that the shares add up to the rows; it surfaces a worker's refusal
// — a re-seed (409), and the lowest-indexed of two refusing workers — and a
// rows mismatch. Over three fake control planes that each answer only once
// all three have been asked, it checks that the posts go out at once, and
// that counts which do not add up to the rows are an error.
func TestSeedPostsEveryWorkerAtOnce(t *testing.T) {
	const rows = 1001 // 333 + 334 + 334 over the range layout
	t.Run("workers", func(t *testing.T) {
		c, servers := startInProcessCluster(t, 3, rows)
		if err := c.Seed(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for i, s := range servers {
			got, want := s.cluster.TotalRecords(), int(rows*uint64(i+1)/3-rows*uint64(i)/3)
			if got != want {
				t.Errorf("worker %d holds %d rows, want its range share %d", i, got, want)
			}
			total += got
		}
		if total != rows {
			t.Errorf("workers hold %d rows, want %d", total, rows)
		}
		err := c.Seed()
		if err == nil || !strings.Contains(err.Error(), "seeding worker 0") || !strings.Contains(err.Error(), "409") {
			t.Fatalf("re-seed: %v, want worker 0's 409", err)
		}
	})
	t.Run("lowest refusal", func(t *testing.T) {
		c, servers := startInProcessCluster(t, 3, rows)
		for _, i := range []int{2, 1} {
			if err := postJSON(t, c.ctrlAddrs[i], "/seed", seedSpec{Rows: rows, Payload: 64}, nil); err != nil {
				t.Fatal(err)
			}
		}
		err := c.Seed()
		if err == nil || !strings.Contains(err.Error(), "seeding worker 1") || !strings.Contains(err.Error(), "already seeded") {
			t.Fatalf("seed over workers 1 and 2 already seeded: %v, want worker 1's refusal", err)
		}
		if got := servers[0].cluster.TotalRecords(); got != 333 {
			t.Errorf("worker 0 holds %d rows, want 333", got)
		}
	})
	t.Run("rows mismatch", func(t *testing.T) {
		c, _ := startInProcessCluster(t, 3, rows)
		c.cfg.Rows = rows + 1
		err := c.Seed()
		if err == nil || !strings.Contains(err.Error(), "seeding worker 0") || !strings.Contains(err.Error(), "do not match") {
			t.Fatalf("seed with the wrong row count: %v, want worker 0's refusal", err)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		for _, tc := range []struct {
			counts []int
			err    string
		}{
			{counts: []int{333, 334, 334}},
			{counts: []int{333, 334, 333}, err: "seeded 1000 rows across the cluster, want 1001"},
		} {
			var arrived sync.WaitGroup
			arrived.Add(len(tc.counts))
			all := make(chan struct{})
			go func() { arrived.Wait(); close(all) }()
			c := &Cluster{cfg: ClusterConfig{Rows: rows}, client: &http.Client{Timeout: 3 * time.Second}}
			for _, n := range tc.counts {
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					arrived.Done()
					select {
					case <-all:
						json.NewEncoder(w).Encode(map[string]int{"seeded": n})
					case <-time.After(2 * time.Second):
						http.Error(w, "the other workers were not asked while this one seeded", http.StatusGatewayTimeout)
					}
				}))
				t.Cleanup(srv.Close)
				c.ctrlAddrs = append(c.ctrlAddrs, strings.TrimPrefix(srv.URL, "http://"))
			}
			err := c.Seed()
			if tc.err == "" && err != nil {
				t.Fatal(err)
			}
			if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("counts %v: %v, want %q", tc.counts, err, tc.err)
			}
		}
	})
}

// startInProcessCluster serves n NodeServers from this process as one
// cluster over loopback, and returns a Cluster that drives their control
// planes as the orchestrator drives hermesd processes.
func startInProcessCluster(t *testing.T, n int, rows uint64) (*Cluster, []*NodeServer) {
	t.Helper()
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	dataLns, ctrlLns := make([]net.Listener, n), make([]net.Listener, n)
	addrs := map[tx.NodeID]string{}
	for i := range dataLns {
		dataLns[i], ctrlLns[i] = listen(), listen()
		addrs[tx.NodeID(i)] = dataLns[i].Addr().String()
	}
	addrs[engine.LeaderNode] = addrs[0]
	c := &Cluster{
		cfg:    ClusterConfig{Workers: n, Rows: rows, Payload: 64},
		client: &http.Client{Timeout: 3 * time.Second},
	}
	servers := make([]*NodeServer, n)
	for i := range servers {
		s, err := NewNodeServer(NodeConfig{
			Self: tx.NodeID(i), Workers: n, Addrs: addrs,
			DataLn: dataLns[i], ControlLn: ctrlLns[i],
			Policy: "calvin", Rows: rows, BatchSize: 10,
			Dir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		go s.Serve()
		t.Cleanup(func() { s.Close() })
		c.ctrlAddrs = append(c.ctrlAddrs, ctrlLns[i].Addr().String())
	}
	return c, servers
}
