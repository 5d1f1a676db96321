package chaos

import (
	"strings"
	"testing"
	"time"
)

// handoffDelay is a storage cost just large enough to make every role
// sleep, which sends it from the bucket worker to the executor pool.
const handoffDelay = time.Microsecond

// dispatchPathEquivalence runs spec under every schedule twice — with the
// cost model at zero, so roles run inline on the bucket worker, and with
// handoffDelay, so every role is handed to the executor pool — and checks
// that all 2×len(scheds) runs quiesced to byte-identical state. Where a
// role runs must never change what it does.
func dispatchPathEquivalence(spec Spec, scheds []Schedule) ([]*Result, error) {
	var all []*Result
	for _, delay := range []time.Duration{0, handoffDelay} {
		ds := spec
		ds.storageDelay = delay
		results, err := Equivalence(ds, scheds)
		all = append(all, results...)
		if err != nil {
			return all, err
		}
		if err := equivalent(all[0], results[0]); err != nil {
			return all, err
		}
	}
	return all, nil
}

// TestDispatchPathEquivalenceAllPolicies: for every routing policy, the
// hand-off path must quiesce to node digests byte-identical to the inline
// path — under a fault-free baseline, a jittery in-contract schedule, and
// the lossy + mid-run-crash schedule. It must NOT be skipped under -short
// (CI pins it by name); -short trims the policy set instead.
func TestDispatchPathEquivalenceAllPolicies(t *testing.T) {
	policies := Policies()
	if testing.Short() {
		policies = []string{"hermes", "calvin"}
	}
	base := Schedules(7270)
	lossy := LossySchedules(7270)
	// baseline + mixed (jitter/spikes/partitions) + drops + lossy-crash.
	scheds := []Schedule{base[0], base[4], lossy[0], lossy[2]}
	for _, pol := range policies {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			spec := Spec{Policy: pol, Workload: WorkloadYCSB, Nodes: 3, Txns: 64, Batch: 8, Seed: 606}
			results, err := dispatchPathEquivalence(spec, scheds)
			if err != nil {
				t.Fatal(err)
			}
			if want := 2 * len(scheds); len(results) != want {
				t.Fatalf("got %d results, want %d", len(results), want)
			}
			// Both halves must have executed the crash cycle and recovered
			// real message loss, or a path was never exercised under faults.
			for half, offset := range map[string]int{"inline": 0, "hand-off": len(scheds)} {
				var sawDrop, sawCrash bool
				for _, r := range results[offset : offset+len(scheds)] {
					if r.Dropped > 0 && r.Retransmits > 0 {
						sawDrop = true
					}
					if r.Crashes > 0 {
						sawCrash = true
					}
				}
				if !sawDrop || !sawCrash {
					t.Errorf("%s runs under-exercised: drop=%v crash=%v", half, sawDrop, sawCrash)
				}
			}
		})
	}
}

// TestDispatchPathEquivalenceLeaderKill: a sequencer failover mid-run must
// not open any daylight between the two dispatch paths.
func TestDispatchPathEquivalenceLeaderKill(t *testing.T) {
	scheds := append([]Schedule{{Name: "baseline", Seed: 8280}}, LeaderKillSchedules(8280)...)
	for _, pol := range []string{"hermes", "calvin"} {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			spec := Spec{
				Policy: pol, Workload: WorkloadYCSB,
				Nodes: 3, Txns: 64, Batch: 8, Seed: 707,
				SeqStandbys: 2,
			}
			results, err := dispatchPathEquivalence(spec, scheds)
			if err != nil {
				t.Fatal(err)
			}
			var failovers int64
			for _, r := range results {
				failovers += r.Failovers
			}
			if failovers == 0 {
				t.Error("no failovers executed; the leader-kill schedules did not fire")
			}
		})
	}
}

// TestDispatchPathEquivalenceInserts covers the inserting workload (TPC-C
// New-Order grows the database), so the hand-off path is proven on key
// sets that did not exist at load time.
func TestDispatchPathEquivalenceInserts(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix only")
	}
	scheds := Schedules(9290)[:2] // baseline + jitter
	spec := Spec{Policy: "hermes", Workload: WorkloadTPCC, Nodes: 2, Txns: 48, Batch: 8, Seed: 17}
	if _, err := dispatchPathEquivalence(spec, scheds); err != nil {
		t.Fatal(err)
	}
}

// TestDiskFaultDispatchPathEquivalence runs the harshest disk schedule on
// both dispatch paths: handing roles to the executor pool must change
// nothing even when every ack is gated behind faulty group commits.
func TestDiskFaultDispatchPathEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("dispatch-path disk matrix skipped in -short mode")
	}
	scheds := []Schedule{{Name: "baseline", Seed: 8180}, DiskFaultSchedules(8180)[0]}
	spec := Spec{Policy: "hermes", Workload: WorkloadYCSB, Nodes: 3, Txns: 64, Batch: 8, Seed: 606}
	if _, err := dispatchPathEquivalence(spec, scheds); err != nil {
		t.Fatal(err)
	}
}

// TestSpecStringIncludesStorageDelay pins the reproduction line: a
// divergence report must say which dispatch path the failing run took.
func TestSpecStringIncludesStorageDelay(t *testing.T) {
	s := Spec{Policy: "hermes", storageDelay: handoffDelay}
	if got := s.String(); !strings.Contains(got, "storage-delay=1µs") {
		t.Fatalf("Spec.String() = %q, want a storage-delay=1µs tag", got)
	}
	if got := (Spec{Policy: "hermes"}).String(); strings.Contains(got, "storage-delay") {
		t.Fatalf("Spec.String() = %q, unexpected storage-delay tag at zero cost", got)
	}
}
