package hermes

import (
	"testing"
	"time"

	"hermes/internal/leaktest"
)

// TestRecoverWithTailAllPolicies exercises the full §4.3 recovery story
// through the public API for every routing policy: run traffic, take a
// checkpoint (from which the sequencer keeps the batches it seals), keep
// running so a non-empty tail accumulates past the checkpoint, then rebuild a fresh
// instance from checkpoint + tail and demand per-node digest equality
// with the uninterrupted original.
func TestRecoverWithTailAllPolicies(t *testing.T) {
	const rows = 96
	for _, pol := range []Policy{PolicyHermes, PolicyCalvin, PolicyGStore, PolicyLEAP, PolicyTPart} {
		t.Run(string(pol), func(t *testing.T) {
			opts := Options{
				Nodes:         3,
				Rows:          rows,
				Policy:        pol,
				BatchSize:     4,
				BatchInterval: 2 * time.Millisecond,
			}
			db := openTest(t, opts)
			db.LoadUniform(16)

			run := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if err := db.ExecWait(0, setProc(
						[]Key{MakeKey(0, uint64(i*3%rows)), MakeKey(0, uint64(i*7%rows))}, []byte{byte(pol[0]), byte(i)},
					)); err != nil {
						t.Fatal(err)
					}
				}
				mustDrain(t, db, 10*time.Second)
			}

			run(0, 24)
			cp, err := db.Checkpoint(10 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			// The post-checkpoint phase is the part recovery must
			// re-execute rather than restore.
			run(24, 48)

			want := db.NodeFingerprints()
			tail := db.Tail(cp.Seq)
			if len(tail) == 0 {
				t.Fatal("post-checkpoint tail is empty; the test would only cover snapshot restore")
			}
			db.Close()

			// Recovery starts exactly one cluster: nothing may outlive a
			// refused recovery, nor the recovered instance once closed.
			defer leaktest.Check(t)()
			if len(tail) > 1 {
				if _, err := RecoverWithTail(opts, cp, tail[1:]); err == nil {
					t.Fatal("a tail with its first batch missing was accepted")
				}
			}
			db2, err := RecoverWithTail(opts, cp, tail)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			got := db2.NodeFingerprints()
			if len(got) != len(want) {
				t.Fatalf("node count %d != %d", len(got), len(want))
			}
			for id, w := range want {
				if got[id] != w {
					t.Errorf("node %d diverged after recovery: %x != %x", id, got[id], w)
				}
			}

			// The recovered instance must keep serving transactions with
			// the total order resuming past the replayed input.
			if err := db2.ExecWait(0, setProc([]Key{MakeKey(0, 1), MakeKey(0, rows-1)}, []byte("post-recovery"))); err != nil {
				t.Fatal(err)
			}
			mustDrain(t, db2, 10*time.Second)
			if v, ok := db2.Read(MakeKey(0, 1)); !ok || string(v) != "post-recovery" {
				t.Fatalf("post-recovery write = %q, %v", v, ok)
			}
		})
	}
}
