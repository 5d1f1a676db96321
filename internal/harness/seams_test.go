package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hermes/internal/chaos"
	"hermes/internal/diskio"
)

// TestScheduleSeams pins the one fault vocabulary to the seams that apply
// it. Refusals: each seam rejects every fault it cannot apply, with an
// error naming the field. Acceptance: each seam takes every standard
// schedule written for it — the in-process families on the link model and
// the in-process run, the WAN-partition-kill schedule on the socket plane
// and on real processes. (The equivalence gates then run each in-process
// schedule, and TestClusterNetChaos the WAN one.)
func TestScheduleSeams(t *testing.T) {
	seams := map[string]func(chaos.Schedule) error{
		"link model": func(s chaos.Schedule) error {
			_, err := chaos.NewModel(s)
			return err
		},
		"in-process run": func(s chaos.Schedule) error {
			return chaos.Check(chaos.Spec{SeqStandbys: 2}, s)
		},
		"socket plane": func(s chaos.Schedule) error {
			p, err := chaos.NewPlane(s)
			if err == nil {
				p.Close()
			}
			return err
		},
		"processes": func(s chaos.Schedule) error {
			p, err := newFaultPlane(s, 3)
			if err == nil {
				p.Close()
			}
			return err
		},
	}

	event := func(ev chaos.Event) chaos.Schedule {
		return chaos.Schedule{Name: "refused", Events: []chaos.Event{ev}}
	}
	partition := event(chaos.Event{Partition: &chaos.Partition{A: []int{0}, B: []int{1}, For: time.Second}})
	reset := event(chaos.Event{Reset: &chaos.Reset{From: 0, To: 1}})
	stall := event(chaos.Event{Stall: &chaos.Stall{From: 0, To: 1, For: time.Second}})
	spike := chaos.Schedule{Name: "refused", SpikeProb: 0.1, SpikeDelay: time.Millisecond}
	outage := chaos.Schedule{Name: "refused", OutageProb: 0.1, OutageDur: time.Millisecond}
	drop := chaos.Schedule{Name: "refused", DropProb: 0.1}
	dup := chaos.Schedule{Name: "refused", DupProb: 0.1}
	refusals := []struct {
		seam, field string
		sched       chaos.Schedule
	}{
		{"link model", "Events[0].Partition", partition},
		{"link model", "Events[0].Reset", reset},
		{"link model", "Events[0].Stall", stall},
		{"in-process run", "Events[0].Reset", reset},
		{"in-process run", "Disk.Seed", chaos.Schedule{Name: "refused", Disk: &diskio.FaultSpec{Seed: 1}}},
		{"in-process run", "Disk.SyncLieProb", chaos.Schedule{Name: "refused", Disk: &diskio.FaultSpec{SyncLieProb: 0.1}}},
		{"socket plane", "SpikeProb", spike},
		{"socket plane", "OutageProb", outage},
		{"socket plane", "DropProb", drop},
		{"socket plane", "DupProb", dup},
		{"processes", "SpikeProb", spike},
		{"processes", "DropProb", drop},
		{"processes", "DupProb", dup},
		{"processes", "Kills[0].Leader", chaos.Schedule{Name: "refused", Kills: []chaos.Kill{{Leader: true, AfterFrac: 0.5}}}},
		{"processes", "Kills[1].Node", chaos.Schedule{Name: "refused", Kills: []chaos.Kill{{Node: 1, AfterFrac: 0.2}, {Node: 3, AfterFrac: 0.5}}}},
		{"processes", "Kills[0].Downtime", chaos.Schedule{Name: "refused", Kills: []chaos.Kill{{Node: 1, AfterFrac: 0.5, Downtime: time.Millisecond}}}},
		{"processes", "Disk", chaos.Schedule{Name: "refused", Disk: &diskio.FaultSpec{TornWriteProb: 0.1}}},
	}
	for _, r := range refusals {
		err := seams[r.seam](r.sched)
		if err == nil {
			t.Errorf("%s accepted a schedule setting %s", r.seam, r.field)
			continue
		}
		if !strings.Contains(err.Error(), r.field) {
			t.Errorf("%s refused a schedule setting %s without naming it: %v", r.seam, r.field, err)
		}
	}

	var inProcess []chaos.Schedule
	for _, family := range [][]chaos.Schedule{
		chaos.Schedules(1), chaos.LossySchedules(1), chaos.LeaderKillSchedules(1), chaos.DiskFaultSchedules(1),
	} {
		inProcess = append(inProcess, family...)
	}
	wan := []chaos.Schedule{chaos.ClusterWANKillSchedule(1, time.Millisecond, 8*time.Millisecond, 2*time.Millisecond, 2*time.Second)}
	for seam, scheds := range map[string][]chaos.Schedule{
		"link model": inProcess, "in-process run": inProcess, "socket plane": wan, "processes": wan,
	} {
		for _, s := range scheds {
			if err := seams[seam](s); err != nil {
				t.Errorf("%s refused standard schedule %v: %v", seam, s, err)
			}
		}
	}
}

// TestRestartWorkerRefusesLeaderHost: worker 0's process holds the
// sequencer leader and the driver, so it is never respawned.
func TestRestartWorkerRefusesLeaderHost(t *testing.T) {
	c := &Cluster{procs: make([]*proc, 3)}
	if err := c.RestartWorker(0); !errors.Is(err, ErrRestartLeaderHost) {
		t.Fatalf("RestartWorker(0) = %v, want ErrRestartLeaderHost", err)
	}
}
