package chaos

import (
	"testing"
)

// TestTelemetryEquivalence proves telemetry is a pure observer: every
// policy must quiesce to byte-identical state — fingerprint, per-node
// digests, storage totals, commit counts — with the lifecycle tracer and
// gauge registry fully on versus fully off, under a clean baseline
// schedule.
func TestTelemetryEquivalence(t *testing.T) {
	baseline := Schedules(41)[0]
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			spec := Spec{Policy: pol, Workload: WorkloadYCSB, Nodes: 3, Txns: 64, Batch: 8, Seed: 404}
			results, err := TelemetryEquivalence(spec, baseline)
			if err != nil {
				t.Fatal(err)
			}
			on := results[1]
			t.Logf("%s: traced %d events, %d metric samples", pol, on.Traced, on.MetricSamples)
		})
	}
}

// TestTelemetryEquivalenceLossyCrash is the hard case the acceptance
// criteria name: telemetry on vs off must stay byte-identical even when
// the schedule drops and duplicates messages AND kills + replays a node
// mid-run — the crash/replay trace markers and the recovering node's
// re-emitted lifecycle events must not leak into engine state.
func TestTelemetryEquivalenceLossyCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy-crash telemetry equivalence is a long test")
	}
	var lossyCrash *Schedule
	for _, s := range LossySchedules(41) {
		if len(s.Kills) > 0 {
			s := s
			lossyCrash = &s
			break
		}
	}
	if lossyCrash == nil {
		t.Fatal("no lossy schedule with crashes found")
	}
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			spec := Spec{Policy: pol, Workload: WorkloadYCSB, Nodes: 3, Txns: 64, Batch: 8, Seed: 405}
			results, err := TelemetryEquivalence(spec, *lossyCrash)
			if err != nil {
				t.Fatal(err)
			}
			on := results[1]
			if on.Crashes == 0 {
				t.Fatalf("schedule %v executed no crashes — not exercising replay", lossyCrash)
			}
			t.Logf("%s: %d crashes, traced %d events", pol, on.Crashes, on.Traced)
		})
	}
}
