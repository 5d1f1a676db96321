package chaos

import (
	"fmt"
	"time"

	"hermes/internal/netchaos"
)

// ClusterKill is one SIGKILL positioned in the deterministic transaction
// stream of a real multi-process cluster run: the victim dies once the
// driver reports AfterFrac of the run committed. Recovery is the heartbeat
// supervisor's job — a schedule with kills must complete without the test
// ever calling RestartWorker itself.
type ClusterKill struct {
	// Worker indexes the victim process.
	Worker int
	// AfterFrac in [0,1) positions the kill within the committed stream.
	AfterFrac float64
}

// ClusterSchedule names one seeded fault run for the real multi-process
// cluster: proxy-level network faults (WAN latency, partitions, mid-stream
// resets, stalls) via a netchaos schedule, plus process kills the
// supervisor must repair. The determinism claim carries over unchanged
// from the in-process suite — every fault lives below the reliable layer,
// so any schedule must quiesce byte-identical to the fault-free in-process
// twin.
type ClusterSchedule struct {
	Name  string
	Net   *netchaos.Schedule
	Kills []ClusterKill
}

// String summarizes the schedule for failure reports.
func (s ClusterSchedule) String() string {
	return fmt.Sprintf("%s(%v, %d kills)", s.Name, s.Net, len(s.Kills))
}

// ClusterWANKillSchedule is the canonical self-healing schedule for a
// 3-process cluster: asymmetric WAN latency between node groups {0} and
// {1, 2}, one mid-stream reset of the always-busy leader link 0->1, a
// bidirectional partition between the groups that heals after heal, and
// one SIGKILL of worker 2 mid-run for the supervisor alone to repair.
// intra/cross/jitter scale the latencies: the CI gate uses small values so
// the run stays fast under -race.
func ClusterWANKillSchedule(seed int64, intra, cross, jitter, heal time.Duration) ClusterSchedule {
	regions := [][]int{{0}, {1, 2}}
	return ClusterSchedule{
		Name: "wan-partition-kill",
		Net: &netchaos.Schedule{
			Name:  "wan-partition-kill",
			Seed:  seed,
			Rules: netchaos.WANProfile(regions, intra, cross, jitter),
			Events: []netchaos.Event{
				{At: 150 * time.Millisecond, Reset: &netchaos.Reset{From: 0, To: 1}},
				{At: 400 * time.Millisecond, Partition: &netchaos.Partition{
					A: []int{0}, B: []int{1, 2}, For: heal}},
			},
		},
		Kills: []ClusterKill{{Worker: 2, AfterFrac: 0.3}},
	}
}
