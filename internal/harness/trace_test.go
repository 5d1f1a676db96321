package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hermes/internal/leaktest"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// fakeClusterTrace builds a two-process trace by hand: known offsets, a
// complete cross-process transaction, an uncommitted one, a node-scope
// marker, and a transaction with a deliberate clock backstep.
func fakeClusterTrace() *ClusterTrace {
	ev := func(ts int64, txn tx.TxnID, node tx.NodeID, ph telemetry.Phase) telemetry.Event {
		return telemetry.Event{TS: ts, Txn: txn, Node: node, Phase: ph}
	}
	return &ClusterTrace{
		Procs: []ProcTrace{
			{
				Worker: 0, OffsetNs: 1000, RTTNs: 200,
				Events: []telemetry.Event{
					// txn 1: driver-side + node 0 copies (offset +1000).
					ev(11000, 1, telemetry.ClusterNode, telemetry.PhaseEnqueued),
					ev(12000, 1, telemetry.ClusterNode, telemetry.PhaseSequenced),
					ev(13000, 1, 0, telemetry.PhaseBatched),
					ev(13500, 1, 0, telemetry.PhaseRouted),
					// txn 2: never commits (partial chain).
					ev(20000, 2, 0, telemetry.PhaseBatched),
					// txn 3: full chain at node 0 with routed stamped BEFORE
					// batched (a 200ns causal backstep).
					ev(5000, 3, telemetry.ClusterNode, telemetry.PhaseEnqueued),
					ev(6000, 3, telemetry.ClusterNode, telemetry.PhaseSequenced),
					ev(9000, 3, 0, telemetry.PhaseBatched),
					ev(8800, 3, 0, telemetry.PhaseRouted),
					ev(9500, 3, 0, telemetry.PhaseCommitted),
					// Node-scope marker: must not become a timeline.
					ev(100, 0, 0, telemetry.PhaseCrash),
				},
			},
			{
				Worker: 1, OffsetNs: -500, RTTNs: 600,
				Events: []telemetry.Event{
					// txn 1 commits at node 1 (offset -500: add 500 to align).
					ev(12600, 1, 1, telemetry.PhaseBatched),
					ev(13000, 1, 1, telemetry.PhaseRouted),
					ev(14000, 1, 1, telemetry.PhaseCommitted),
				},
			},
		},
		BaseNs: 4000,
	}
}

func TestStitchTimelines(t *testing.T) {
	ct := fakeClusterTrace()
	tls := ct.Stitch()
	if len(tls) != 3 {
		t.Fatalf("stitched %d timelines, want 3 (txn-0 markers skipped): %+v", len(tls), tls)
	}
	byTxn := map[tx.TxnID]*TxnTimeline{}
	for i := range tls {
		byTxn[tls[i].Txn] = &tls[i]
	}

	tl1 := byTxn[1]
	if tl1 == nil || !tl1.Committed || !tl1.Complete {
		t.Fatalf("txn 1 should be committed+complete: %+v", tl1)
	}
	if tl1.CommitNode != 1 || tl1.CommitWorker != 1 {
		t.Fatalf("txn 1 commit site wrong: %+v", tl1)
	}
	if tl1.BackstepNs != 0 {
		t.Fatalf("txn 1 chain is causally ordered, got backstep %d", tl1.BackstepNs)
	}
	// Aligned order interleaves the two processes: proc0's events map to
	// 10000..12500, proc1's to 13100..14500.
	wantAligned := []int64{10000, 11000, 12000, 12500, 13100, 13500, 14500}
	if len(tl1.Events) != len(wantAligned) {
		t.Fatalf("txn 1 has %d events, want %d", len(tl1.Events), len(wantAligned))
	}
	for i, ev := range tl1.Events {
		if ev.AlignedTS != wantAligned[i] {
			t.Fatalf("txn 1 event %d aligned to %d, want %d", i, ev.AlignedTS, wantAligned[i])
		}
	}
	if tl1.Events[4].Worker != 1 || tl1.Events[3].Worker != 0 {
		t.Fatalf("txn 1 worker attribution wrong: %+v", tl1.Events)
	}

	tl2 := byTxn[2]
	if tl2 == nil || tl2.Committed || tl2.Complete {
		t.Fatalf("txn 2 should be uncommitted and incomplete: %+v", tl2)
	}

	tl3 := byTxn[3]
	if tl3 == nil || !tl3.Committed || !tl3.Complete {
		t.Fatalf("txn 3 should be committed+complete: %+v", tl3)
	}
	// Routed (aligned 7800) precedes Batched (aligned 8000) on the commit
	// node: a 200ns critical-chain backstep.
	if tl3.BackstepNs != 200 {
		t.Fatalf("txn 3 backstep %d, want 200", tl3.BackstepNs)
	}

	st := ct.Stats(tls)
	if st.Txns != 3 || st.Committed != 2 || st.Complete != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.CompleteFraction != 1.0 {
		t.Fatalf("complete fraction %v, want 1.0", st.CompleteFraction)
	}
	if st.MaxBackstepNs != 200 {
		t.Fatalf("max backstep %d, want 200", st.MaxBackstepNs)
	}
	// Slack: sum of the two largest uncertainties (200/2+1) + (600/2+1).
	if want := int64(101 + 301); st.SlackNs != want {
		t.Fatalf("slack %d, want %d", st.SlackNs, want)
	}
}

func TestWritePerfettoSchema(t *testing.T) {
	ct := fakeClusterTrace()
	tls := ct.Stitch()
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, ct, tls); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  int64   `json:"pid"`
			TID  int64   `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			ID   uint64  `json:"id"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", f.DisplayTimeUnit)
	}
	valid := map[string]bool{"M": true, "i": true, "X": true, "s": true, "t": true, "f": true}
	var meta, slices, instants, flowS, flowT, flowF int
	for _, ev := range f.TraceEvents {
		if !valid[ev.Ph] {
			t.Fatalf("unknown event phase %q: %+v", ev.Ph, ev)
		}
		if ev.Name == "" {
			t.Fatalf("unnamed event: %+v", ev)
		}
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if ev.Dur < 0 {
				t.Fatalf("negative slice duration: %+v", ev)
			}
			if ev.TS < 0 {
				t.Fatalf("slice before trace base: %+v", ev)
			}
		case "i":
			instants++
		case "s":
			flowS++
		case "t":
			flowT++
		case "f":
			flowF++
		}
	}
	// One metadata record per process track: the cluster scope + 2 workers.
	if meta != 3 {
		t.Fatalf("%d process_name records, want 3", meta)
	}
	// One instant per timeline (its first event), slices for the rest.
	if instants != 3 {
		t.Fatalf("%d instants, want 3", instants)
	}
	if slices == 0 {
		t.Fatal("no lifecycle slices emitted")
	}
	// txn 1 crosses cluster -> node0 -> node1 and txn 3 crosses
	// cluster -> node0: both get flow chains (one start and one finish
	// each, at least one step).
	if flowS != 2 || flowF != 2 || flowT < 2 {
		t.Fatalf("flow events s=%d t=%d f=%d, want 2/>=2/2", flowS, flowT, flowF)
	}
}

// TestClusterTraceExport is the tentpole's end-to-end: a 3-process
// hermes/ycsb run, trace collected over /trace/export with clock
// alignment, stitched per-transaction, and held to the acceptance bar —
// >=99% of committed transactions with a complete cross-process chain and
// aligned timestamps monotonic within the probe slack — then rendered as
// Perfetto JSON.
func TestClusterTraceExport(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster tests skipped in -short mode")
	}
	if _, err := HermesdBinary(); err != nil {
		t.Fatalf("building hermesd: %v", err)
	}
	const txns = 600
	c, err := StartCluster(ClusterConfig{
		Workers: 3, Policy: "hermes", Rows: 4000, Payload: 64, BatchSize: 25,
		TraceRing: 8192, Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Seed(); err != nil {
		t.Fatal(err)
	}
	spec := WorkloadSpec{
		Kind: WorkloadYCSB, Seed: 42, Txns: txns, Rows: 4000,
		KeysPerTxn: 3, Payload: 64, Theta: 0.8, Window: 50,
	}
	if err := c.Run(spec); err != nil {
		t.Fatal(err)
	}
	res, err := c.WaitRun(60 * time.Second)
	if err != nil {
		dumpClusterState(t, c)
		t.Fatal(err)
	}
	if res.Committed != txns {
		t.Fatalf("committed %d of %d", res.Committed, txns)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		dumpClusterState(t, c)
		t.Fatal(err)
	}

	ct, err := c.CollectTrace()
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Procs) != 3 {
		t.Fatalf("collected %d process traces, want 3", len(ct.Procs))
	}
	for _, p := range ct.Procs {
		if len(p.Events) == 0 {
			t.Fatalf("worker %d exported no events", p.Worker)
		}
		if p.RTTNs <= 0 {
			t.Fatalf("worker %d has no clock probe: %+v", p.Worker, p)
		}
	}
	timelines := ct.Stitch()
	st := ct.Stats(timelines)
	if st.Committed != txns {
		t.Fatalf("stitched %d committed transactions, want %d", st.Committed, txns)
	}
	if st.CompleteFraction < 0.99 {
		t.Fatalf("only %.1f%% of committed txns have complete cross-process chains (want >= 99%%): %+v",
			100*st.CompleteFraction, st)
	}
	if st.MaxBackstepNs > st.SlackNs {
		t.Fatalf("critical-chain timestamps not monotonic under alignment: backstep %dns > slack %dns",
			st.MaxBackstepNs, st.SlackNs)
	}

	// The Perfetto render must be loadable JSON with the right shape.
	path := filepath.Join(t.TempDir(), "trace.json")
	wst, err := c.WritePerfettoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if wst.Committed != st.Committed || wst.Complete < st.Complete {
		t.Fatalf("file stats diverge from collected stats: %+v vs %+v", wst, st)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// CLUSTER_E2E_ARTIFACTS keeps the trace: this is how to get a Perfetto
	// file of a real 3-process run to open in ui.perfetto.dev.
	if dest := os.Getenv("CLUSTER_E2E_ARTIFACTS"); dest != "" {
		if err := os.WriteFile(filepath.Join(dest, "trace.json"), data, 0o644); err != nil {
			t.Fatalf("keeping the trace: %v", err)
		}
	}
	var pf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &pf); err != nil {
		t.Fatalf("perfetto file is not valid JSON: %v", err)
	}
	if len(pf.TraceEvents) < txns {
		t.Fatalf("perfetto file has %d events for %d txns", len(pf.TraceEvents), txns)
	}
	for _, ev := range pf.TraceEvents {
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Fatalf("negative slice duration in file: %+v", ev)
		}
	}

	// Cluster-wide histogram-backed phase summaries: one commit observation
	// per transaction, merged across every process.
	phases, err := c.PhaseSummaries()
	if err != nil {
		t.Fatal(err)
	}
	tot, ok := phases["total"]
	if !ok || tot.Count != txns {
		t.Fatalf("phase summaries total count=%d, want %d (%+v)", tot.Count, txns, phases)
	}
	if tot.P50Ms <= 0 || tot.P99Ms < tot.P50Ms {
		t.Fatalf("implausible total summary: %+v", tot)
	}

	// Every process's /metrics carries the per-phase histogram family.
	for i := range ct.Procs {
		body, err := c.getRaw(i, "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), "hermes_phase_latency_seconds_bucket") {
			t.Fatalf("worker %d /metrics missing the phase histogram family", i)
		}
	}
}

// TestClusterTraceOnOffDigestEquivalence extends the observation-only
// guarantee to the multi-process cluster: two identical runs differing
// only in whether lifecycle tracing/export is enabled must finish with
// byte-identical node digests.
func TestClusterTraceOnOffDigestEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster tests skipped in -short mode")
	}
	if _, err := HermesdBinary(); err != nil {
		t.Fatalf("building hermesd: %v", err)
	}
	spec := WorkloadSpec{
		Kind: WorkloadYCSB, Seed: 13, Txns: 400, Rows: 4000,
		KeysPerTxn: 3, Payload: 64, Theta: 0.8, Window: 50,
	}
	run := func(traceOff bool) []byte {
		t.Helper()
		c, err := StartCluster(ClusterConfig{
			Workers: 3, Policy: "hermes", Rows: 4000, Payload: 64, BatchSize: 25,
			TraceRing: 8192, TraceOff: traceOff, Dir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Seed(); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(spec); err != nil {
			t.Fatal(err)
		}
		res, err := c.WaitRun(60 * time.Second)
		if err != nil {
			dumpClusterState(t, c)
			t.Fatal(err)
		}
		if res.Committed != int64(spec.Txns) {
			t.Fatalf("traceOff=%v committed %d of %d", traceOff, res.Committed, spec.Txns)
		}
		if err := c.Quiesce(30 * time.Second); err != nil {
			dumpClusterState(t, c)
			t.Fatal(err)
		}
		if !traceOff {
			// Exercise the full export path on the traced side so the
			// equivalence covers collection itself, not just emission.
			if _, err := c.CollectTrace(); err != nil {
				t.Fatal(err)
			}
		} else {
			// The untraced side must genuinely have tracing off.
			ct, err := c.CollectTrace()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ct.Procs {
				if len(p.Events) != 0 {
					t.Fatalf("traceOff worker %d still exported %d events", p.Worker, len(p.Events))
				}
			}
		}
		digests, err := c.Digests()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(digests)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	on := run(false)
	off := run(true)
	if !bytes.Equal(on, off) {
		t.Fatalf("digests diverge between tracing on and off:\non:  %s\noff: %s", on, off)
	}
}

// TestNodeServerTraceEndpointsNoLeak drives the exporter surface of a live
// NodeServer — /trace/export, /trace/slow, /phases, /clock — and checks
// shutdown leaves no exporter goroutines behind.
func TestNodeServerTraceEndpointsNoLeak(t *testing.T) {
	defer leaktest.Check(t)()
	s, addr := newTestNodeServer(t, t.TempDir())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	if err := postJSON(t, addr, "/seed", seedSpec{Rows: 200, Payload: 32}, nil); err != nil {
		t.Fatal(err)
	}
	spec := WorkloadSpec{
		Kind: WorkloadYCSB, Seed: 3, Txns: 100, Rows: 200,
		KeysPerTxn: 2, Payload: 32, Theta: 0.7, Window: 20,
	}
	if err := postJSON(t, addr, "/run", spec, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st RunStatus
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

	// Export while live: the stream must decode and contain the run.
	resp, err := http.Get("http://" + addr + "/trace/export")
	if err != nil {
		t.Fatal(err)
	}
	es, err := telemetry.ReadEventStream(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(es.Events) == 0 {
		t.Fatal("live export returned no events")
	}
	for _, path := range []string{"/trace/slow", "/phases", "/clock"} {
		r, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, r.StatusCode)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after close")
	}
}

// TestCollectTraceKilledWorker checks the collector against a SIGKILLed
// process: the pull must fail with an error (not hang, not yield a torn
// stream) and leave no collector goroutines behind.
func TestCollectTraceKilledWorker(t *testing.T) {
	c := startTestCluster(t, "hermes")
	defer leaktest.Check(t)()
	if err := c.KillWorker(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CollectTrace(); err == nil {
		t.Fatal("CollectTrace against a killed worker succeeded")
	}
	if _, err := c.PhaseSummaries(); err == nil {
		t.Fatal("PhaseSummaries against a killed worker succeeded")
	}
}
