package hermes

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

func openTest(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.BatchSize == 0 {
		opts.BatchSize = 8
	}
	if opts.BatchInterval == 0 {
		opts.BatchInterval = 2 * time.Millisecond
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
	if _, err := Open(Options{Nodes: 2}); err == nil {
		t.Fatal("missing Rows and Base accepted")
	}
	if _, err := Open(Options{Nodes: 2, Rows: 100, Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Open(Options{Nodes: 2, Rows: 100, Executors: -1}); err == nil {
		t.Fatal("negative Executors accepted")
	}
}

func TestAllPoliciesEndToEnd(t *testing.T) {
	for _, p := range []Policy{PolicyHermes, PolicyCalvin, PolicyGStore, PolicyLEAP, PolicyTPart} {
		t.Run(string(p), func(t *testing.T) {
			db := openTest(t, Options{Nodes: 3, Rows: 300, Policy: p})
			db.LoadUniform(16)
			// Distributed read-modify-write across partitions.
			k1, k2 := MakeKey(0, 10), MakeKey(0, 250)
			proc := &CounterProc{Reads: []Key{k1, k2}, Writes: []Key{k1, k2}, Payload: 16}
			for i := 0; i < 10; i++ {
				if err := db.ExecWait(NodeID(i%3), proc); err != nil {
					t.Fatal(err)
				}
			}
			mustDrain(t, db, 10*time.Second)
			for _, k := range []Key{k1, k2} {
				v, ok := db.Read(k)
				if !ok || v[0] != 10 {
					t.Fatalf("%v: key %v = %v, want counter 10", p, k, v)
				}
			}
			st := db.Stats()
			if st.Committed != 10 {
				t.Fatalf("Committed = %d", st.Committed)
			}
			if st.AvgBreakdown.Total() <= 0 {
				t.Fatal("empty latency breakdown")
			}
		})
	}
}

func TestStatsPopulated(t *testing.T) {
	db := openTest(t, Options{Nodes: 2, Rows: 100, Policy: PolicyHermes, StatsWindow: 100 * time.Millisecond})
	db.LoadUniform(16)
	for i := 0; i < 20; i++ {
		if err := db.ExecWait(0, &CounterProc{
			Reads:  []Key{MakeKey(0, uint64(i)), MakeKey(0, 80)},
			Writes: []Key{MakeKey(0, 80)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, db, 5*time.Second)
	st := db.Stats()
	if st.Committed != 20 || len(st.Throughput) == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.NetworkBytes == 0 {
		t.Fatal("no network bytes recorded for distributed transactions")
	}
	if st.P99 < st.P50 {
		t.Fatalf("P99 %v < P50 %v", st.P99, st.P50)
	}
}

func TestProvisionAndMigrateAPI(t *testing.T) {
	db := openTest(t, Options{Nodes: 2, StandbyNodes: 1, Rows: 200, Policy: PolicyHermes})
	db.LoadUniform(16)
	if err := db.Provision([]NodeID{2}, nil); err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for i := uint64(0); i < 50; i++ {
		keys = append(keys, MakeKey(0, i))
	}
	if err := db.Migrate(keys, 2, 20); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, db, 10*time.Second)
	if got := db.Cluster().Node(2).Store().Len(); got != 50 {
		t.Fatalf("migrated records on new node = %d, want 50", got)
	}
	// Everything still readable and writable.
	if err := db.ExecWait(0, setProc([]Key{keys[0]}, []byte("after-scale-out"))); err != nil {
		t.Fatal(err)
	}
	mustDrain(t, db, 5*time.Second)
	if v, ok := db.Read(keys[0]); !ok || string(v) != "after-scale-out" {
		t.Fatalf("read after migration = %q,%v", v, ok)
	}
}

func TestDeterministicFingerprint(t *testing.T) {
	run := func() uint64 {
		db := openTest(t, Options{Nodes: 2, Rows: 100, Policy: PolicyHermes})
		db.LoadUniform(16)
		for i := 0; i < 30; i++ {
			if err := db.ExecWait(NodeID(i%2), setProc(
				[]Key{MakeKey(0, uint64(i*3%100)), MakeKey(0, uint64(i*7%100))}, []byte{byte(i)},
			)); err != nil {
				t.Fatal(err)
			}
		}
		mustDrain(t, db, 10*time.Second)
		return db.Fingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("fingerprints differ: %x vs %x", a, b)
	}
}

func ExampleOpen() {
	db, err := Open(Options{Nodes: 2, Rows: 1000, Policy: PolicyHermes, BatchSize: 4, BatchInterval: time.Millisecond})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	db.LoadUniform(16)
	err = db.ExecWait(0, &CounterProc{
		Reads:   []Key{MakeKey(0, 1), MakeKey(0, 900)},
		Writes:  []Key{MakeKey(0, 900)},
		Payload: 16,
	})
	if err != nil {
		panic(err)
	}
	db.Drain(5 * time.Second)
	v, _ := db.Read(MakeKey(0, 900))
	fmt.Println(binary.LittleEndian.Uint64(v))
	// Output: 1
}

// setProc overwrites keys[0] with v after reading every key in keys: a
// constant write, which only a FuncProc expresses.
func setProc(keys []Key, v []byte) *FuncProc {
	return &FuncProc{Reads: keys, Writes: keys[:1], Fn: func(ctx ExecCtx) { ctx.Write(keys[0], v) }}
}

// mustDrain fails the test with the engine's diagnosis of what the quiesce
// is stuck behind if db does not drain within timeout.
func mustDrain(t testing.TB, db *DB, timeout time.Duration) {
	t.Helper()
	if err := db.cluster.DrainDetail(timeout); err != nil {
		t.Fatal(err)
	}
}

// TestWideReadModifyWrite runs one 70,000-key read-modify-write, its keys
// spread over all three partitions and far beyond the fusion table, twice
// through the public API, and checks every counter. Execution is linear in
// a transaction's width: the run takes seconds, not minutes.
func TestWideReadModifyWrite(t *testing.T) {
	const width = 70_000
	db := openTest(t, Options{Nodes: 3, Rows: width})
	db.LoadUniform(8)
	keys := make([]Key, width)
	for i := range keys {
		keys[i] = MakeKey(0, uint64(i))
	}
	proc := &CounterProc{Reads: keys, Writes: keys, Payload: 8}
	for i := 0; i < 2; i++ {
		if err := db.ExecWait(NodeID(i), proc); err != nil {
			t.Fatal(err)
		}
	}
	mustDrain(t, db, time.Minute)
	for _, k := range keys {
		if v, ok := db.Read(k); !ok || binary.LittleEndian.Uint64(v) != 2 {
			t.Fatalf("key %v = %v (found %v), want counter 2", k, v, ok)
		}
	}
}
