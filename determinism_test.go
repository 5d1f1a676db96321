package hermes

import (
	"slices"
	"testing"

	"hermes/internal/chaos"
)

// TestDeterministicReplay is the regression gate for the system's core
// invariant: replaying the same seeded workload through the same policy
// must reproduce identical per-node digests, for every routing policy the paper evaluates. It drives the
// chaos harness's pinned-batch protocol (internal/chaos) so batch
// composition is part of the replayed input, not an accident of timing.
func TestDeterministicReplay(t *testing.T) {
	cases := []struct {
		policy   string
		workload chaos.Workload
		seed     int64
	}{
		{"hermes", chaos.WorkloadYCSB, 101},
		{"calvin", chaos.WorkloadYCSB, 102},
		{"gstore", chaos.WorkloadYCSB, 103},
		{"leap", chaos.WorkloadYCSB, 104},
		{"tpart", chaos.WorkloadYCSB, 105},
		{"hermes", chaos.WorkloadMultiTenant, 106},
		{"hermes", chaos.WorkloadTPCC, 107},
	}
	for _, tc := range cases {
		t.Run(tc.policy+"/"+string(tc.workload), func(t *testing.T) {
			t.Parallel()
			spec := chaos.Spec{
				Policy: tc.policy, Workload: tc.workload,
				Nodes: 3, Txns: 48, Batch: 8, Seed: tc.seed,
			}
			// Two fault-free replays of the identical input: any
			// digest difference is nondeterminism in the system
			// itself, not in the environment.
			replays := []chaos.Schedule{
				{Name: "replay-a", Seed: 1},
				{Name: "replay-b", Seed: 2},
			}
			results, err := chaos.Equivalence(spec, replays)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := results[0].Nodes, results[1].Nodes; !slices.Equal(a, b) {
				t.Fatalf("replay node digests differ: %+v vs %+v", a, b)
			}
			if results[0].Committed == 0 {
				t.Fatal("replay committed nothing")
			}
		})
	}
}

// TestPoliciesCovered pins the harness policy list to the public Policy
// constants so a new policy cannot be added without entering the
// determinism gate.
func TestPoliciesCovered(t *testing.T) {
	want := map[Policy]bool{
		PolicyHermes: true, PolicyCalvin: true, PolicyGStore: true,
		PolicyLEAP: true, PolicyTPart: true,
	}
	if got := len(chaos.Policies()); got != len(want) {
		t.Fatalf("harness covers %d policies, public API has %d", got, len(want))
	}
}
