package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/tx"
)

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRing(64)
	for i := 0; i < 200; i++ {
		r.put(Event{TS: int64(i), Txn: tx.TxnID(i)})
	}
	got := r.drain(nil)
	if len(got) != 64 {
		t.Fatalf("drained %d events, want 64", len(got))
	}
	for i, ev := range got {
		want := int64(200 - 64 + i)
		if ev.TS != want {
			t.Fatalf("event %d: TS=%d, want %d (oldest-first, newest kept)", i, ev.TS, want)
		}
	}
	if r.Written() != 200 {
		t.Fatalf("Written=%d, want 200", r.Written())
	}
}

func TestRingRoundsUpCapacity(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024}} {
		if got := NewRing(c.in).Cap(); got != c.want {
			t.Errorf("NewRing(%d).Cap()=%d, want %d", c.in, got, c.want)
		}
	}
}

func TestRingConcurrentPutDrain(t *testing.T) {
	const writers, perWriter = 4, 10000
	r := NewRing(256)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				// TS and Aux carry the same value so a torn read is detectable.
				r.put(Event{TS: v, Aux: v, Node: tx.NodeID(w)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		for _, ev := range r.drain(nil) {
			if ev.TS != ev.Aux {
				t.Fatalf("torn event escaped drain: TS=%d Aux=%d", ev.TS, ev.Aux)
			}
		}
		select {
		case <-done:
			if r.Written() != writers*perWriter {
				t.Fatalf("Written=%d, want %d", r.Written(), writers*perWriter)
			}
			if got := len(r.drain(nil)); got == 0 || got > r.Cap() {
				t.Fatalf("quiescent drain returned %d events, want 1..%d", got, r.Cap())
			}
			return
		default:
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, 1, PhaseCommitted, 0) // must not panic
	tr.EmitAt(time.Now(), 0, 1, PhaseCommitted, 0)
	tr.SetEnabled(true)
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Events() != nil || tr.Written() != 0 {
		t.Fatal("nil tracer has events")
	}
	if !strings.Contains(tr.Summary(7), "no trace events") {
		t.Fatal("nil tracer summary missing placeholder")
	}

	var tel *Telemetry
	tel.Tracer().Emit(0, 1, PhaseCommitted, 0)
	if tel.Registry() != nil {
		t.Fatal("nil telemetry returned a registry")
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := NewTracer([]tx.NodeID{0, 1}, 64)
	tr.SetEnabled(false)
	tr.Emit(0, 1, PhaseCommitted, 0)
	if tr.Written() != 0 {
		t.Fatalf("disabled tracer wrote %d events", tr.Written())
	}
	tr.SetEnabled(true)
	tr.Emit(0, 1, PhaseCommitted, 0)
	if tr.Written() != 1 {
		t.Fatalf("re-enabled tracer wrote %d events, want 1", tr.Written())
	}
}

func TestTracerEventsOrderedAndRouted(t *testing.T) {
	tr := NewTracer([]tx.NodeID{0, 1}, 64)
	base := time.Unix(0, 1000)
	tr.EmitAt(base.Add(3*time.Nanosecond), 1, 5, PhaseExecuted, 0)
	tr.EmitAt(base, ClusterNode, 5, PhaseEnqueued, 0)
	tr.EmitAt(base.Add(1*time.Nanosecond), ClusterNode, 5, PhaseSequenced, 0)
	tr.EmitAt(base.Add(2*time.Nanosecond), 0, 5, PhaseBatched, 9)
	tr.EmitAt(base.Add(2*time.Nanosecond), 1, 5, PhaseBatched, 9)
	tr.EmitAt(base.Add(4*time.Nanosecond), 99, 5, PhaseCommitted, 42) // unknown node -> catch-all

	evs := tr.Events()
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	wantPhases := []Phase{PhaseEnqueued, PhaseSequenced, PhaseBatched, PhaseBatched, PhaseExecuted, PhaseCommitted}
	for i, ev := range evs {
		if ev.Phase != wantPhases[i] {
			t.Fatalf("event %d phase=%s, want %s", i, ev.Phase, wantPhases[i])
		}
	}
	// Equal timestamps break ties by node: node 0's batched before node 1's.
	if evs[2].Node != 0 || evs[3].Node != 1 {
		t.Fatalf("tie-break wrong: %v then %v", evs[2].Node, evs[3].Node)
	}

	if got := tr.TxnEvents(5); len(got) != 6 {
		t.Fatalf("TxnEvents(5) returned %d, want 6", len(got))
	}
	if got := tr.TxnEvents(6); len(got) != 0 {
		t.Fatalf("TxnEvents(6) returned %d, want 0", len(got))
	}
}

func TestTracerSummary(t *testing.T) {
	tr := NewTracer([]tx.NodeID{0}, 64)
	base := time.Unix(0, 0)
	tr.EmitAt(base, ClusterNode, 3, PhaseEnqueued, 0)
	tr.EmitAt(base.Add(time.Millisecond), 0, 3, PhaseRouted, 0)
	tr.EmitAt(base.Add(2*time.Millisecond), 0, 3, PhaseLocked, int64(500*time.Microsecond))
	tr.EmitAt(base.Add(3*time.Millisecond), 0, 3, PhaseCommitted, int64(3*time.Millisecond))
	s := tr.Summary(3)
	for _, want := range []string{"txn 3 trace (4 events)", "enqueued", "routed", "lock-wait=500µs", "total=3ms", "cluster", "node 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	phases := []Phase{PhaseEnqueued, PhaseSequenced, PhaseBatched, PhaseRouted, PhaseLocked,
		PhaseRemoteReady, PhaseMigratedIn, PhaseExecuted, PhaseCommitted, PhaseAborted, PhaseCrash, PhaseReplay}
	seen := map[string]bool{}
	for _, p := range phases {
		s := p.String()
		if s == "" || strings.HasPrefix(s, "phase(") || seen[s] {
			t.Fatalf("phase %d has bad or duplicate name %q", p, s)
		}
		seen[s] = true
	}
	if got := Phase(200).String(); got != "phase(200)" {
		t.Fatalf("unknown phase string %q", got)
	}
}

func TestRegistryGauges(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.Gauge(`hermes_queue_depth{node="0"}`, "queue depth", func() float64 { return v })
	r.Gauge(`hermes_queue_depth{node="0"}`, "queue depth", func() float64 { return v * 2 }) // replace
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d samples, want 1", len(snap))
	}
	m := r.SnapshotMap()
	if m[`hermes_queue_depth{node="0"}`] != 3 {
		t.Fatalf("replaced gauge=%v, want 3", m[`hermes_queue_depth{node="0"}`])
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Gauge(`hermes_b{node="1"}`, "b gauge", func() float64 { return 2 })
	r.Gauge(`hermes_b{node="0"}`, "b gauge", func() float64 { return 1 })
	r.Gauge(`hermes_c_total{node="0"}`, "c count", func() float64 { return 7 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP hermes_b b gauge",
		"# TYPE hermes_b gauge",
		`hermes_b{node="0"} 1`,
		`hermes_b{node="1"} 2`,
		"# HELP hermes_c_total c count",
		"# TYPE hermes_c_total counter",
		`hermes_c_total{node="0"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE hermes_b ") != 1 {
		t.Errorf("duplicate TYPE header for family hermes_b:\n%s", out)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.Gauge("hermes_g", "g", func() float64 { return float64(w) })
			r.Snapshot()
		}(w)
	}
	wg.Wait()
	if got := r.Snapshot(); len(got) != 1 {
		t.Fatalf("snapshot has %d samples after 8 registrations of one name, want 1", len(got))
	}
}

func TestHandlerEndpoints(t *testing.T) {
	tel := New([]tx.NodeID{0, 1}, 64)
	tel.Registry().Gauge("hermes_x", "x", func() float64 { return 3 })
	tel.Tracer().EmitAt(time.Unix(0, 10), 0, 9, PhaseCommitted, 100)
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, b.String())
		}
		return b.String()
	}

	if out := get("/metrics"); !strings.Contains(out, "hermes_x 3") {
		t.Errorf("/metrics missing gauge:\n%s", out)
	}
	if out := get("/trace?txn=9"); !strings.Contains(out, "committed") {
		t.Errorf("/trace?txn=9 missing phase:\n%s", out)
	}
	if out := get("/trace"); !strings.Contains(out, "1 events") {
		t.Errorf("/trace missing log:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "cmdline") {
		t.Errorf("/debug/vars not expvar JSON:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if out := get("/"); !strings.Contains(out, "/metrics") {
		t.Errorf("index missing endpoints:\n%s", out)
	}

	resp, err := srv.Client().Get(srv.URL + "/trace?txn=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad txn id: status %d, want 400", resp.StatusCode)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	tr := NewTracer([]tx.NodeID{0}, 1<<10)
	tr.SetEnabled(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, 1, PhaseCommitted, 0)
	}
}

func BenchmarkEmitNil(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, 1, PhaseCommitted, 0)
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	tr := NewTracer([]tx.NodeID{0}, 1<<14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(0, 1, PhaseCommitted, 0)
	}
}
