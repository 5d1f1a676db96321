package chaos

import (
	"strings"
	"testing"
	"time"

	"hermes/internal/router"
	"hermes/internal/tx"
)

// matrix returns the schedule/policy/workload cross-product sized for the
// test mode: -short runs a quick smoke slice, the full run covers the
// acceptance matrix (5 distinct fault schedules x 3 policies x 2
// workloads).
func matrix(short bool) (scheds []Schedule, policies []string, workloads []Workload) {
	scheds = Schedules(1234)
	policies = []string{"hermes", "calvin", "tpart"}
	workloads = []Workload{WorkloadYCSB, WorkloadMultiTenant}
	if short {
		scheds = []Schedule{scheds[0], scheds[4]} // baseline + mixed
		policies = policies[:1]
		workloads = workloads[:1]
	}
	return
}

// TestEquivalenceMatrix is the determinism property: the same totally
// ordered workload must reach byte-identical state under every fault
// schedule, for every policy and workload in the matrix.
func TestEquivalenceMatrix(t *testing.T) {
	scheds, policies, workloads := matrix(testing.Short())
	for _, wl := range workloads {
		for _, pol := range policies {
			t.Run(string(wl)+"/"+pol, func(t *testing.T) {
				t.Parallel()
				spec := Spec{Policy: pol, Workload: wl, Nodes: 3, Txns: 64, Batch: 8, Seed: 99}
				results, err := Equivalence(spec, scheds)
				if err != nil {
					t.Fatal(err)
				}
				if len(results) != len(scheds) {
					t.Fatalf("got %d results, want %d", len(results), len(scheds))
				}
				// The faulty schedules must actually have perturbed the
				// run, or the suite proves nothing.
				for _, r := range results[1:] {
					if r.FaultMsgs == 0 {
						t.Errorf("schedule %v injected no faults", r.Schedule)
					}
				}
			})
		}
	}
}

// TestEquivalenceTPCC covers the inserting workload across fault
// schedules: New-Order grows the database, so admission plans key queues
// for keys that did not exist at load time.
func TestEquivalenceTPCC(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix only")
	}
	scheds := Schedules(777)
	for _, pol := range []string{"hermes", "calvin"} {
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			spec := Spec{Policy: pol, Workload: WorkloadTPCC, Nodes: 2, Txns: 48, Batch: 8, Seed: 5}
			if _, err := Equivalence(spec, scheds[:3]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// orderChainProcs builds a trace whose final state encodes the exact
// serial order: every transaction folds its index into a shared hot key
// with a non-commutative mix, so ANY reordering of the input produces a
// different quiesced state.
func orderChainProcs(n int, rows uint64) []tx.Procedure {
	procs := make([]tx.Procedure, 0, n)
	hot := tx.MakeKey(0, 0)
	for i := 0; i < n; i++ {
		i := i
		k := tx.MakeKey(0, uint64(i)%rows)
		procs = append(procs, &tx.FuncProc{
			Reads:  []tx.Key{hot, k},
			Writes: []tx.Key{hot},
			Fn: func(ctx tx.ExecCtx) {
				out := append([]byte(nil), ctx.Read(hot)...)
				if len(out) >= 8 {
					// Length-preserving order-sensitive fold.
					acc := uint64(out[0]) | uint64(out[1])<<8 | uint64(out[2])<<16 | uint64(out[3])<<24
					acc = acc*31 + uint64(i) + 1
					out[0], out[1], out[2], out[3] = byte(acc), byte(acc>>8), byte(acc>>16), byte(acc>>24)
				}
				ctx.Write(hot, out)
			},
		})
	}
	return procs
}

// TestNegativeInputOrderCaught: a deliberately nondeterministic mutation —
// submitting the trace in Go map-iteration order — must be caught by the
// equivalence checker as a divergence. This is the harness's own negative
// control: if this test fails, the checker has gone blind.
func TestNegativeInputOrderCaught(t *testing.T) {
	spec := Spec{
		Policy: "hermes", Workload: WorkloadYCSB,
		Nodes: 2, Txns: 64, Batch: 8, Seed: 13,
		MutateProcs: func([]tx.Procedure) []tx.Procedure {
			// Replace the trace with an order-chain trace shuffled by map
			// iteration: each run submits a different permutation.
			procs := orderChainProcs(64, 96)
			m := make(map[int]tx.Procedure, len(procs))
			for i, p := range procs {
				m[i] = p
			}
			out := make([]tx.Procedure, 0, len(procs))
			for _, p := range m {
				out = append(out, p)
			}
			return out
		},
	}
	// Two fault-free runs suffice: the nondeterminism is in the input.
	scheds := []Schedule{{Name: "baseline-a", Seed: 1}, {Name: "baseline-b", Seed: 2}}
	_, err := Equivalence(spec, scheds)
	if err == nil {
		t.Fatal("equivalence checker missed an input-order nondeterminism")
	}
	if !strings.Contains(err.Error(), "DIVERGENCE") {
		t.Fatalf("expected a divergence report, got: %v", err)
	}
}

// scrambledPolicy wraps a routing replica and feeds RouteUser its segment
// in map-iteration order — the classic accidental-nondeterminism bug in a
// deterministic system (each replica scrambles differently).
type scrambledPolicy struct{ router.Policy }

func (s scrambledPolicy) RouteUser(txns []*tx.Request) []*router.Route {
	m := make(map[int]*tx.Request, len(txns))
	for i, r := range txns {
		m[i] = r
	}
	shuffled := make([]*tx.Request, 0, len(txns))
	for _, r := range m {
		shuffled = append(shuffled, r)
	}
	return s.Policy.RouteUser(shuffled)
}

// TestNegativeRoutingOrderCaught: map-iteration routing inside the policy
// replicas must be caught by the harness — either as divergent state or
// as a failure to quiesce (replicas disagree about who sends what, so
// transactions stall). Both are reported as errors.
func TestNegativeRoutingOrderCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("wedges the cluster until the run timeout")
	}
	spec := Spec{
		Policy: "hermes", Workload: WorkloadYCSB,
		Nodes: 3, Txns: 32, Batch: 8, Seed: 21,
		Timeout:    8 * time.Second,
		WrapPolicy: func(p router.Policy) router.Policy { return scrambledPolicy{p} },
	}
	scheds := []Schedule{{Name: "baseline-a", Seed: 1}, {Name: "baseline-b", Seed: 2}}
	_, err := Equivalence(spec, scheds)
	if err == nil {
		t.Fatal("equivalence harness missed map-iteration-order routing")
	}
	t.Logf("caught as: %v", err)
}

// TestConservationAcrossSchedules: the storage totals (records and bytes)
// are part of the equivalence check; this pins the property directly for
// a migrating policy under the full schedule matrix.
func TestConservationAcrossSchedules(t *testing.T) {
	scheds := Schedules(31)
	if testing.Short() {
		scheds = scheds[:2]
	}
	spec := Spec{Policy: "leap", Workload: WorkloadYCSB, Nodes: 3, Txns: 48, Batch: 8, Seed: 77}
	results, err := Equivalence(spec, scheds)
	if err != nil {
		t.Fatal(err)
	}
	// LEAP migrates every remote record it touches; the loaded totals
	// must still be intact in every run (Run enforces it; double-check
	// the reported totals agree between runs here).
	for _, r := range results[1:] {
		if r.Records != results[0].Records || r.Bytes != results[0].Bytes {
			t.Fatalf("storage totals diverged: %+v vs %+v", results[0], r)
		}
	}
}

// TestRunRejectsUnknownSpecs covers the harness's own error paths.
func TestRunRejectsUnknownSpecs(t *testing.T) {
	if _, err := Run(Spec{Policy: "bogus"}, Schedule{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Run(Spec{Workload: "bogus"}, Schedule{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestEquivalenceLossAndCrashAllPolicies is the live fault-tolerance
// acceptance property: schedules that drop messages, duplicate them, and
// kill/restart a node mid-run must still reach state byte-identical to
// the fault-free baseline — for every routing policy, reproducibly from
// the logged seed.
func TestEquivalenceLossAndCrashAllPolicies(t *testing.T) {
	policies := Policies()
	if testing.Short() {
		policies = []string{"hermes", "calvin"}
	}
	scheds := append([]Schedule{{Name: "baseline", Seed: 5150}}, LossySchedules(5150)...)
	for _, pol := range policies {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			spec := Spec{Policy: pol, Workload: WorkloadYCSB, Nodes: 3, Txns: 64, Batch: 8, Seed: 303}
			results, err := Equivalence(spec, scheds)
			if err != nil {
				t.Fatal(err)
			}
			// Prove the schedules actually exceeded the base contract:
			// messages were lost and duplicated, the reliable layer had to
			// retransmit, and the crash cycle executed.
			var sawDrop, sawDup, sawCrash bool
			for _, r := range results[1:] {
				if r.Dropped > 0 {
					sawDrop = true
					if r.Retransmits == 0 {
						t.Errorf("%v dropped %d messages but retransmitted none", r.Schedule, r.Dropped)
					}
				}
				if r.Dupped > 0 {
					sawDup = true
				}
				if kills := len(r.Schedule.Kills); kills > 0 {
					sawCrash = true
					if r.Crashes != int64(kills) {
						t.Errorf("%v executed %d crashes, want %d", r.Schedule, r.Crashes, kills)
					}
				}
			}
			if !sawDrop || !sawDup || !sawCrash {
				t.Errorf("loss matrix under-exercised: drop=%v dup=%v crash=%v", sawDrop, sawDup, sawCrash)
			}
		})
	}
}

// TestEquivalenceLeaderKillAllPolicies is the failover acceptance
// property: killing the total-order leader mid-run — alone, and combined
// with the lossy + worker-crash schedule — must still quiesce to node
// digests byte-identical to a fault-free run, for every routing policy,
// with every transaction sequenced exactly once. This is the named
// leader-failover CI gate; it must NOT be skipped under -short.
func TestEquivalenceLeaderKillAllPolicies(t *testing.T) {
	scheds := append([]Schedule{{Name: "baseline", Seed: 6160}}, LeaderKillSchedules(6160)...)
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			spec := Spec{
				Policy: pol, Workload: WorkloadYCSB,
				Nodes: 3, Txns: 64, Batch: 8, Seed: 404,
				SeqStandbys: 2,
			}
			results, err := Equivalence(spec, scheds)
			if err != nil {
				t.Fatal(err)
			}
			// Prove the failover machinery actually fired: every leader-kill
			// schedule promoted a standby, and the combined schedule also
			// executed its worker crash over a lossy network.
			var sawCombined bool
			for _, r := range results[1:] {
				var leaderKills int64
				for _, k := range r.Schedule.Kills {
					if k.Leader {
						leaderKills++
					}
				}
				if r.Failovers < leaderKills {
					t.Errorf("%v recorded %d failovers, want at least %d", r.Schedule, r.Failovers, leaderKills)
				}
				if int64(len(r.Schedule.Kills)) > leaderKills {
					sawCombined = true
					// The crash counter records leader kills too.
					want := int64(len(r.Schedule.Kills))
					if r.Crashes != want {
						t.Errorf("%v executed %d crash cycles, want %d", r.Schedule, r.Crashes, want)
					}
					if r.Dropped == 0 {
						t.Errorf("%v dropped no messages; the combined schedule is not lossy", r.Schedule)
					}
				}
			}
			if !sawCombined {
				t.Error("leader-kill matrix lacks the combined lossy+worker-crash schedule")
			}
			if results[0].Failovers != 0 {
				t.Errorf("fault-free baseline recorded %d failovers", results[0].Failovers)
			}
		})
	}
}

// TestLeaderKillScheduleRequiresStandbys pins the harness error surface:
// a leader-kill schedule on a spec without standbys must fail loudly
// before the run starts, not wedge mid-stream.
func TestLeaderKillScheduleRequiresStandbys(t *testing.T) {
	sched := LeaderKillSchedules(1)[0]
	_, err := Run(Spec{Policy: "hermes", Workload: WorkloadYCSB, Txns: 16, Batch: 8}, sched)
	if err == nil {
		t.Fatal("leader-kill schedule without standbys accepted")
	}
	if !strings.Contains(err.Error(), "SeqStandbys") {
		t.Errorf("error %q does not point at Spec.SeqStandbys", err)
	}
}

// TestLossyScheduleSeedReproducible: re-running a logged seed must reach
// the identical quiesced state. (The raw drop/duplicate counts are NOT
// bit-reproducible: retransmissions change how many messages cross the
// faulty links, which shifts the per-link PRNG stream — the determinism
// contract under loss is about state, never about wire traffic.)
func TestLossyScheduleSeedReproducible(t *testing.T) {
	sched := LossySchedules(808)[2] // drops + dups + crash
	spec := Spec{Policy: "hermes", Workload: WorkloadYCSB, Nodes: 3, Txns: 32, Batch: 8, Seed: 11}
	a, err := Run(spec, sched)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := equivalent(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Dropped == 0 || b.Dropped == 0 {
		t.Fatalf("schedule dropped nothing: %d vs %d", a.Dropped, b.Dropped)
	}
}
