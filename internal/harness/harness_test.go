package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"hermes/internal/engine"
	"hermes/internal/leaktest"
	"hermes/internal/tx"
)

// TestWorkloadSpecDeterministic pins the harness's core premise: the
// transaction stream is a pure function of the spec, so two independent
// generations are identical key for key.
func TestWorkloadSpecDeterministic(t *testing.T) {
	for _, kind := range []string{WorkloadYCSB, WorkloadHotspot} {
		spec := WorkloadSpec{
			Kind: kind, Seed: 7, Txns: 500, Rows: 1000,
			KeysPerTxn: 3, Payload: 32, Theta: 0.8, Window: 50,
		}
		a, err := spec.Procs()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := spec.Procs()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(a) != spec.Txns {
			t.Fatalf("%s: generated %d txns, want %d", kind, len(a), spec.Txns)
		}
		for i := range a {
			if len(a[i].Reads) != spec.KeysPerTxn {
				t.Fatalf("%s: txn %d has %d keys", kind, i, len(a[i].Reads))
			}
			for j := range a[i].Reads {
				if a[i].Reads[j] != b[i].Reads[j] {
					t.Fatalf("%s: txn %d key %d differs between generations", kind, i, j)
				}
			}
		}
	}
}

// TestProcsSkipDropsPrefix: Skip=k returns exactly the Skip=0 stream's
// [k:] (with the sweep normalized over the whole stream), in a slice that
// holds only the Txns it returns, so the skipped prefix is not kept alive
// for the run.
func TestProcsSkipDropsPrefix(t *testing.T) {
	for _, kind := range []string{WorkloadYCSB, WorkloadHotspot} {
		const skip, txns = 300, 200
		full := WorkloadSpec{
			Kind: kind, Seed: 11, Txns: skip + txns, Rows: 1000,
			KeysPerTxn: 3, Payload: 32, Theta: 0.8, Window: 50,
		}
		want, err := full.Procs()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		part := full
		part.Txns, part.Skip = txns, skip
		got, err := part.Procs()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(got) != txns || cap(got) != txns {
			t.Fatalf("%s: Skip=%d returned len %d cap %d, want both %d", kind, skip, len(got), cap(got), txns)
		}
		for i, p := range got {
			if w := want[skip+i]; !slices.Equal(p.Reads, w.Reads) || !slices.Equal(p.Writes, w.Writes) || p.Payload != w.Payload {
				t.Fatalf("%s: txn %d after the skip is %+v, want %+v", kind, i, *p, *w)
			}
		}
		// Drawing past a long prefix allocates for what is returned only.
		long := part
		long.Skip, long.Txns = 20_000, 10
		if allocs := testing.AllocsPerRun(1, func() { _, _ = long.Procs() }); allocs > 100 {
			t.Fatalf("%s: Skip=%d, Txns=%d made %.0f allocations", kind, long.Skip, long.Txns, allocs)
		}
	}
}

// TestWorkloadSpecValidate covers the mistakes Validate exists to catch.
func TestWorkloadSpecValidate(t *testing.T) {
	good := WorkloadSpec{Kind: WorkloadYCSB, Txns: 10, Rows: 100, KeysPerTxn: 2, Window: 20}
	if err := good.Validate(10); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := good
	bad.Kind = "tpcc"
	if err := bad.Validate(10); err == nil {
		t.Fatal("unknown workload kind accepted")
	}
	bad = good
	bad.Window = 5
	if err := bad.Validate(10); err == nil {
		t.Fatal("window below batch size accepted; the closed loop would deadlock")
	}
	bad = good
	bad.KeysPerTxn = 200
	if err := bad.Validate(10); err == nil {
		t.Fatal("more distinct keys than rows accepted")
	}
}

// TestParseMetrics parses a small Prometheus exposition.
func TestParseMetrics(t *testing.T) {
	body := []byte(`# HELP hermes_committed_total committed transactions
# TYPE hermes_committed_total counter
hermes_committed_total{node="0"} 120
hermes_net_bytes 4096
malformed line without value
`)
	m := ParseMetrics(body)
	if m[`hermes_committed_total{node="0"}`] != 120 {
		t.Fatalf("labeled metric not parsed: %v", m)
	}
	if m["hermes_net_bytes"] != 4096 {
		t.Fatalf("bare metric not parsed: %v", m)
	}
	if got := MetricSum([]map[string]float64{m, m}, "hermes_committed_total"); got != 240 {
		t.Fatalf("MetricSum = %v, want 240", got)
	}
}

// newTestNodeServer boots a single-worker NodeServer (co-hosting the
// sequencer leader) on loopback listeners the test binds itself.
func newTestNodeServer(t *testing.T, dir string) (*NodeServer, string) {
	t.Helper()
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	dataLn, ctrlLn := listen(), listen()
	addrs := map[tx.NodeID]string{
		0:                 dataLn.Addr().String(),
		engine.LeaderNode: dataLn.Addr().String(),
	}
	s, err := NewNodeServer(NodeConfig{
		Self: 0, Workers: 1, Addrs: addrs,
		DataLn: dataLn, ControlLn: ctrlLn,
		Policy: "calvin", Rows: 200, BatchSize: 10,
		Dir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, ctrlLn.Addr().String()
}

func postJSON(t *testing.T, addr, path string, in, out any) error {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getJSON(t *testing.T, addr, path string, out any) error {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestNodeServerLifecycle drives one full node lifecycle through the
// control plane — seed, run, drain, digest — and checks Close leaves no
// goroutines behind and is idempotent.
func TestNodeServerLifecycle(t *testing.T) {
	defer leaktest.Check(t)()
	s, addr := newTestNodeServer(t, t.TempDir())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	var seeded struct {
		Seeded int `json:"seeded"`
	}
	if err := postJSON(t, addr, "/seed", seedSpec{Rows: 200, Payload: 32}, &seeded); err != nil {
		t.Fatal(err)
	}
	if seeded.Seeded != 200 {
		t.Fatalf("single worker seeded %d of 200 rows", seeded.Seeded)
	}
	// Re-seeding a started node must be refused, not re-applied.
	if err := postJSON(t, addr, "/seed", seedSpec{Rows: 200, Payload: 32}, nil); err == nil {
		t.Fatal("second /seed accepted")
	}

	spec := WorkloadSpec{
		Kind: WorkloadYCSB, Seed: 3, Txns: 100, Rows: 200,
		KeysPerTxn: 2, Payload: 32, Theta: 0.7, Window: 20,
	}
	if err := postJSON(t, addr, "/run", spec, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var st RunStatus
	for {
		if err := getJSON(t, addr, "/runstatus", &st); err != nil {
			t.Fatal(err)
		}
		if st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Err != "" || st.Result == nil || st.Result.Committed != 100 {
		t.Fatalf("run did not commit everything: %+v", st)
	}
	var d engine.NodeDigest
	if err := getJSON(t, addr, "/digest", &d); err != nil {
		t.Fatal(err)
	}
	if d.Records != 200 || d.Store == 0 {
		t.Fatalf("digest after run: %+v", d)
	}
	var ps ProcStats
	if err := getJSON(t, addr, "/stats", &ps); err != nil {
		t.Fatal(err)
	}
	if ps.Committed != 100 {
		t.Fatalf("stats committed = %d, want 100", ps.Committed)
	}
	// The worker and its leader share one transport and one reliable
	// layer: the link still sequences and acks their traffic, but none of
	// it is network traffic. (TestClusterE2E checks the socket counters
	// where there are sockets.)
	if ps.NetMsgs != 0 || ps.NetBytes != 0 || ps.NetSocketBytes != 0 || ps.NetSocketWrites != 0 || len(ps.MsgsByType) != 0 {
		t.Fatalf("stats net_msgs=%d net_bytes=%d net_socket_bytes=%d net_socket_writes=%d msgs_by_type=%v, want no wire traffic in a one-process cluster",
			ps.NetMsgs, ps.NetBytes, ps.NetSocketBytes, ps.NetSocketWrites, ps.MsgsByType)
	}
	if ps.LinkAcks+ps.LinkAcksPiggybacked == 0 {
		t.Fatal("stats link_acks=0 and link_acks_piggybacked=0: the leader's link to its co-hosted worker was not sequenced")
	}
	for _, field := range []string{"socket-bytes=0", "socket-writes=0", "link-acks=", "link-acks-piggybacked=", "frame-errors=0", "by type:"} {
		if !strings.Contains(ps.Format(), field) {
			t.Fatalf("Format() lacks %q:\n%s", field, ps.Format())
		}
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"hermes_net_socket_writes_total", "hermes_link_acks_total", "hermes_link_acks_piggybacked_total"} {
		if !strings.Contains(string(metrics), series) {
			t.Fatalf("/metrics lacks %s", series)
		}
	}

	// A worker replays its journal after a restart, never its in-memory
	// delivery log, so nothing sets a rewind floor there: the log keeps no
	// frame the worker has taken, and a rewind to the start — which would
	// re-deliver the whole run — is refused, before a durable checkpoint
	// and after it alike.
	rel := s.cluster.Reliable()
	rewindRefused := func(when string) {
		t.Helper()
		rel.Pause(0)
		err := rel.Rewind(0, 0)
		rel.Resume(0)
		if err == nil || !strings.Contains(err.Error(), "log truncated") {
			t.Fatalf("rewind to the start %s the checkpoint: %v, want a truncated log", when, err)
		}
	}
	rewindRefused("before")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		err := postJSON(t, addr, "/checkpoint", struct{}{}, nil)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/checkpoint: %v", err)
		}
	}
	rewindRefused("after")

	// Close drains in-flight work, tears everything down, and is
	// idempotent; Serve must return cleanly.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v after close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after close")
	}
}

// TestNodeServerCloseBeforeSeed checks a node that never started (no
// /seed) still shuts down cleanly without leaking its transports.
func TestNodeServerCloseBeforeSeed(t *testing.T) {
	defer leaktest.Check(t)()
	s, _ := newTestNodeServer(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatalf("close before seed: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestRunTwinDeterministic runs the in-process twin twice on the same spec
// and checks the digests — the reference side of the cluster comparison —
// are identical run to run.
func TestRunTwinDeterministic(t *testing.T) {
	cfg := TwinConfig{Workers: 3, Policy: "calvin", Rows: 600, Payload: 32, BatchSize: 10}
	spec := WorkloadSpec{
		Kind: WorkloadHotspot, Seed: 11, Txns: 200, Rows: 600,
		KeysPerTxn: 2, Payload: 32, Theta: 0.8, Window: 20,
	}
	a, err := RunTwin(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTwin(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Committed != int64(spec.Txns) {
		t.Fatalf("twin committed %d of %d", a.Result.Committed, spec.Txns)
	}
	if len(a.Digests) != cfg.Workers {
		t.Fatalf("twin produced %d digests for %d workers", len(a.Digests), cfg.Workers)
	}
	for i := range a.Digests {
		if a.Digests[i] != b.Digests[i] {
			t.Fatalf("twin digests diverge between identical runs at node %d:\n%+v\n%+v",
				i, a.Digests[i], b.Digests[i])
		}
	}
}
