package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"hermes/internal/diskio"
	"hermes/internal/network"
)

// Schedule is the one fault vocabulary: every fault the repo injects —
// into the in-process transport, the sockets between hermesd processes,
// the delivery journal's storage and the processes themselves — is a
// field here. The zero value injects nothing. A schedule is fully
// determined by its seed, and each seam applies the fields it can and
// refuses, naming the field, any fault it cannot apply:
//
//   - NewModel, the in-process link model: Shape, Links and the message
//     faults;
//   - Run, the in-process harness: NewModel's fields, Kills, Disk and
//     Fsync;
//   - NewPlane, the per-link TCP proxy: Shape, Links and Events;
//   - harness.StartCluster, real processes: NewPlane's fields and worker
//     Kills.
type Schedule struct {
	// Name labels the schedule in failure reports.
	Name string
	// Seed determines every random draw: each link, each node's disk and
	// each crash check derives its own PRNG from it (mixSeed), so a
	// logged seed reproduces the exact per-link fault pattern regardless
	// of goroutine interleaving.
	Seed int64

	// Shape conditions every link; Links overrides it per directed link,
	// first match wins.
	Shape Shape
	Links []LinkShape

	// SpikeProb is the per-message probability of a delay spike of
	// uniform magnitude in [0, SpikeDelay).
	SpikeProb  float64
	SpikeDelay time.Duration
	// OutageProb is the per-message probability that the link goes down
	// for a uniform time in [0, OutageDur). Messages sent meanwhile queue
	// behind the outage and redeliver in order once it heals (head-of-line
	// blocking, as on a real reconnecting link).
	OutageProb float64
	OutageDur  time.Duration
	// DropProb is the per-message probability that the link silently
	// discards a message; DupProb the probability that it delivers one
	// twice. Both break the base Transport contract, so they require the
	// engine's reliable-delivery layer (RequiresReliable).
	DropProb float64
	DupProb  float64

	// Events are timed one-shot socket faults, fired at their offsets
	// from the start of the workload.
	Events []Event

	// Kills are node, leader and process kills positioned in the
	// deterministic stream. They require the reliable layer.
	Kills []Kill

	// Disk, when set, runs every node's delivery journal over a
	// fault-injecting in-memory filesystem and verifies its crash recovery
	// at each kill and at the end of the run (disk.go). Its Seed stays
	// zero: each node's disk is seeded from the schedule's Seed. Fsync is
	// the journals' fsync policy ("" = batch, the group-commit path).
	// Both require the reliable layer (the journal hooks hang off it).
	Disk  *diskio.FaultSpec
	Fsync network.SyncPolicy
}

// Shape is the steady-state conditioning of one directed link.
type Shape struct {
	// Latency is added one-way delay.
	Latency time.Duration
	// Jitter adds a uniform extra delay in [0, Jitter) drawn from the
	// link's PRNG.
	Jitter time.Duration
	// BytesPerSec caps throughput (0 = unlimited): n bytes occupy the link
	// for n/BytesPerSec, like serialization delay on a narrow pipe.
	BytesPerSec int64
}

// serialization is how long n bytes occupy a link of shape sh.
func (sh Shape) serialization(n int) time.Duration {
	if sh.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(sh.BytesPerSec) * float64(time.Second))
}

// due is when n bytes sent at sent on a link of shape sh arrive: they wait
// for the link to finish the bytes before them (*free, which due advances),
// occupy it for their serialization time, then travel Latency plus jitter
// (the caller's draw from [0, Jitter)). Pipelined, as netem's delay queue
// is: latency delays bytes without capping throughput. Both the socket
// plane's pump and the in-process link model time every message with it.
func (sh Shape) due(sent time.Time, n int, jitter time.Duration, free *time.Time) time.Time {
	at := sent
	if sh.BytesPerSec > 0 {
		if free.After(at) {
			at = *free
		}
		at = at.Add(sh.serialization(n))
		*free = at
	}
	return at.Add(sh.Latency + jitter)
}

// LinkShape overrides the schedule's Shape on the directed link From ->
// To. On the socket plane it conditions both directions of every
// connection From dials to To (a hermesd link carries frames one way; the
// return direction carries only the handshake reply).
type LinkShape struct {
	From, To int
	Shape    Shape
}

// Event is one timed socket fault, fired At after the workload starts.
// Exactly one of the pointers is set.
type Event struct {
	At        time.Duration
	Partition *Partition
	Reset     *Reset
	Stall     *Stall
}

// Partition cuts every link whose endpoints fall on opposite sides of the
// A/B split, in both directions, for the duration For. New connections are
// accepted and immediately reset (the dialer sees a connect-then-RST, like
// a host dropping off the network behind a live switch); existing
// connections are reset at partition onset.
type Partition struct {
	A, B []int
	For  time.Duration
}

// Reset kills every live connection on the directed link From -> To with
// an RST — SO_LINGER zero, so the peer sees ECONNRESET mid-stream, not a
// clean FIN.
type Reset struct {
	From, To int
}

// Stall half-opens the directed link: connections stay established but no
// bytes move for the duration For. A transport with a write deadline turns
// the stall into a bounded error, one without hangs — which is the point.
type Stall struct {
	From, To int
	For      time.Duration
}

// Kill is one kill positioned in the deterministic stream: the victim dies
// once AfterFrac of the run has gone by — of the batches its scheduler
// consumed in-process, of the transactions the driver committed on real
// processes. The trigger is a point in the input, so "when" a kill hits is
// reproducible even though the kill itself is wall-clock asynchronous.
type Kill struct {
	// Node indexes the victim, modulo the cluster size.
	Node int
	// AfterFrac in [0,1) positions the kill within the stream.
	AfterFrac float64
	// Downtime is how long the victim stays dead before the harness
	// restarts it and it replays. On real processes the supervisor
	// restarts it, so Downtime stays zero there.
	Downtime time.Duration
	// Leader kills the current sequencer leader instead of Node: a standby
	// promotes itself and the killed replica rejoins as a standby of the
	// new epoch. The trigger watches node 0's scheduler; the run needs
	// sequencer standbys (Spec.SeqStandbys).
	Leader bool
}

// String summarizes the schedule for failure reports.
func (s Schedule) String() string {
	return fmt.Sprintf("%s(seed=%d)", s.Name, s.Seed)
}

// faulty reports whether the schedule injects anything at the transport.
func (s Schedule) faulty() bool {
	return s.Shape != (Shape{}) || len(s.Links) > 0 || s.SpikeProb > 0 || s.OutageProb > 0 ||
		s.DropProb > 0 || s.DupProb > 0
}

// RequiresReliable reports whether the schedule's faults exceed what the
// base Transport contract tolerates: message loss, duplication, kills and
// journal faults all need the engine's reliable-delivery layer underneath.
func (s Schedule) RequiresReliable() bool {
	return s.DropProb > 0 || s.DupProb > 0 || len(s.Kills) > 0 || s.Disk != nil
}

// shapeOf is the shape of the directed link from -> to.
func (s Schedule) shapeOf(from, to int) Shape {
	for _, l := range s.Links {
		if l.From == from && l.To == to {
			return l.Shape
		}
	}
	return s.Shape
}

// eventsErr refuses socket events: the in-process transport has no
// sockets to reset, stall or cut.
func (s Schedule) eventsErr() error {
	if len(s.Events) > 0 {
		return fmt.Errorf("chaos: %v: Events[0].%s is a socket fault; the in-process transport has no sockets", s, s.Events[0].kind())
	}
	return nil
}

// messageErr refuses message faults: the socket plane proxies opaque byte
// streams, so it has no messages to spike, hold, drop or duplicate.
func (s Schedule) messageErr() error {
	var field string
	switch {
	case s.SpikeProb > 0:
		field = "SpikeProb"
	case s.OutageProb > 0:
		field = "OutageProb"
	case s.DropProb > 0:
		field = "DropProb"
	case s.DupProb > 0:
		field = "DupProb"
	default:
		return nil
	}
	return fmt.Errorf("chaos: %v: %s is a message fault; the socket plane proxies bytes, not messages", s, field)
}

func (ev Event) kind() string {
	switch {
	case ev.Partition != nil:
		return "Partition"
	case ev.Reset != nil:
		return "Reset"
	case ev.Stall != nil:
		return "Stall"
	}
	return "(empty)"
}

// Check reports the first fault in sched that Run cannot apply to spec,
// naming its field. Run refuses such a schedule before it starts.
func Check(spec Spec, sched Schedule) error {
	if err := sched.eventsErr(); err != nil {
		return err
	}
	for i, k := range sched.Kills {
		if k.Leader && spec.SeqStandbys < 1 {
			return fmt.Errorf("chaos: %v: Kills[%d].Leader needs sequencer standbys but spec %v has none (set Spec.SeqStandbys)", sched, i, spec)
		}
	}
	switch d := sched.Disk; {
	case d == nil && sched.Fsync != "":
		return fmt.Errorf("chaos: %v: Fsync is set without Disk; only the shadow journals have a policy", sched)
	case d == nil:
	case d.Seed != 0:
		return fmt.Errorf("chaos: %v: Disk.Seed is set; each node's disk is seeded from the schedule's Seed", sched)
	case d.SyncLieProb > 0:
		// A device that acknowledges fsyncs it never performed breaks
		// acked ⇒ recovered, which the crash check asserts; a diskio unit
		// test covers it instead.
		return fmt.Errorf("chaos: %v: Disk.SyncLieProb is set; a lying fsync legitimately loses acked frames", sched)
	}
	return nil
}

// Schedules returns the standard matrix of distinct fault schedules used
// by the equivalence suite, all derived from seed: a fault-free baseline,
// pure jitter, delay spikes, transient outages, and a mixed schedule with
// bandwidth throttling. The magnitudes are scaled for unit tests
// (microseconds to a few milliseconds) so a full matrix stays fast.
func Schedules(seed int64) []Schedule {
	return []Schedule{
		{Name: "baseline", Seed: seed},
		{Name: "jitter", Seed: seed + 1, Shape: Shape{Jitter: 2 * time.Millisecond}},
		{Name: "spikes", Seed: seed + 2, Shape: Shape{Jitter: 200 * time.Microsecond},
			SpikeProb: 0.05, SpikeDelay: 8 * time.Millisecond},
		{Name: "partitions", Seed: seed + 3, Shape: Shape{Jitter: 100 * time.Microsecond},
			OutageProb: 0.02, OutageDur: 20 * time.Millisecond},
		{Name: "mixed", Seed: seed + 4, Shape: Shape{Jitter: time.Millisecond, BytesPerSec: 4 << 20},
			SpikeProb: 0.03, SpikeDelay: 5 * time.Millisecond,
			OutageProb: 0.01, OutageDur: 10 * time.Millisecond},
	}
}

// LossySchedules returns the fault schedules that exceed the base
// Transport contract — drops, duplicates, and a combined
// drop+duplicate+mid-run-crash schedule — all requiring the reliable
// layer. They extend Schedules(seed) in the equivalence suite: every run
// must still reach state byte-identical to the fault-free baseline.
func LossySchedules(seed int64) []Schedule {
	jitter := Shape{Jitter: 300 * time.Microsecond}
	return []Schedule{
		{Name: "drops", Seed: seed + 10, Shape: jitter, DropProb: 0.05},
		{Name: "dups", Seed: seed + 11, Shape: jitter, DupProb: 0.08},
		{Name: "lossy-crash", Seed: seed + 12, Shape: Shape{Jitter: 200 * time.Microsecond},
			DropProb: 0.03, DupProb: 0.03,
			Kills: []Kill{{Node: 1, AfterFrac: 0.4, Downtime: 30 * time.Millisecond}}},
	}
}

// LeaderKillSchedules returns the fault schedules that kill the
// total-order leader mid-run: once on an otherwise clean network, and
// once combined with the full lossy + worker-crash pattern — the
// harshest schedule in the suite, where the reliable layer, the worker
// replay path, and the sequencer failover protocol all fire in the same
// run. Both must still quiesce byte-identical to the fault-free
// baseline.
func LeaderKillSchedules(seed int64) []Schedule {
	jitter := Shape{Jitter: 200 * time.Microsecond}
	return []Schedule{
		{Name: "leader-kill", Seed: seed + 20, Shape: jitter,
			Kills: []Kill{{Leader: true, AfterFrac: 0.4, Downtime: 20 * time.Millisecond}}},
		{Name: "leader-kill-lossy-crash", Seed: seed + 21, Shape: jitter,
			DropProb: 0.03, DupProb: 0.03,
			Kills: []Kill{
				{Node: 1, AfterFrac: 0.3, Downtime: 30 * time.Millisecond},
				{Leader: true, AfterFrac: 0.6, Downtime: 20 * time.Millisecond},
			}},
	}
}

// DiskFaultSchedules returns the storage-fault schedules of the
// equivalence suite, all derived from seed: torn/short writes on the
// append path, failed fsyncs under group commit, and crash bit-flips on
// the recovery path — each combined with a mid-run node crash so the
// shadow journals are verified at a live kill point, not just at
// quiescence. All require the reliable layer (the shadows hang off it).
func DiskFaultSchedules(seed int64) []Schedule {
	jitter := Shape{Jitter: 200 * time.Microsecond}
	return []Schedule{
		{Name: "disk-torn-write", Seed: seed + 30, Shape: jitter,
			Disk:  &diskio.FaultSpec{TornWriteProb: 0.08, ShortWriteProb: 0.08, CrashBitFlipProb: 0.1},
			Kills: []Kill{{Node: 1, AfterFrac: 0.4, Downtime: 20 * time.Millisecond}}},
		{Name: "disk-bitflip", Seed: seed + 31, Shape: jitter,
			Disk:  &diskio.FaultSpec{CrashBitFlipProb: 0.3},
			Kills: []Kill{{Node: 2, AfterFrac: 0.5, Downtime: 20 * time.Millisecond}}},
		{Name: "disk-fsync-fail", Seed: seed + 32, Shape: jitter,
			Disk:  &diskio.FaultSpec{SyncFailProb: 0.25, TornWriteProb: 0.03, CrashBitFlipProb: 0.1},
			Kills: []Kill{{Node: 1, AfterFrac: 0.6, Downtime: 20 * time.Millisecond}}},
	}
}

// WANProfile builds the per-link shapes of an asymmetric wide-area
// topology: regions lists worker ids per region; links inside a region get
// intra latency, links crossing regions get cross latency, both with the
// given jitter. Two regions at 40ms cross / 5ms intra is
// WANProfile([][]int{{0,1},{2}}, 5*time.Millisecond, 40*time.Millisecond, time.Millisecond).
func WANProfile(regions [][]int, intra, cross, jitter time.Duration) []LinkShape {
	regionOf := map[int]int{}
	var all []int
	for r, members := range regions {
		for _, id := range members {
			regionOf[id] = r
			all = append(all, id)
		}
	}
	var links []LinkShape
	for _, a := range all {
		for _, b := range all {
			if a == b {
				continue
			}
			lat := intra
			if regionOf[a] != regionOf[b] {
				lat = cross
			}
			links = append(links, LinkShape{From: a, To: b, Shape: Shape{Latency: lat, Jitter: jitter}})
		}
	}
	return links
}

// ClusterWANKillSchedule is the canonical self-healing schedule for a
// 3-process cluster: asymmetric WAN latency between node groups {0} and
// {1, 2}, one mid-stream reset of the always-busy leader link 0->1, a
// bidirectional partition between the groups that heals after heal, and
// one SIGKILL of worker 2 mid-run for the supervisor alone to repair.
// intra/cross/jitter scale the latencies: the CI gate uses small values so
// the run stays fast under -race.
func ClusterWANKillSchedule(seed int64, intra, cross, jitter, heal time.Duration) Schedule {
	return Schedule{
		Name:  "wan-partition-kill",
		Seed:  seed,
		Links: WANProfile([][]int{{0}, {1, 2}}, intra, cross, jitter),
		Events: []Event{
			{At: 150 * time.Millisecond, Reset: &Reset{From: 0, To: 1}},
			{At: 400 * time.Millisecond, Partition: &Partition{A: []int{0}, B: []int{1, 2}, For: heal}},
		},
		Kills: []Kill{{Node: 2, AfterFrac: 0.3}},
	}
}

// mixSeed derives an independent deterministic seed from the schedule
// seed and two salts (a splitmix64 finalizer). It is the one seed mixer:
// every per-link, per-disk and per-crash-check PRNG comes from it.
func mixSeed(seed int64, a, b uint64) uint64 {
	z := uint64(seed) ^ a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// linkRand is the PRNG of the directed link from -> to.
func linkRand(seed int64, from, to int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mixSeed(seed, uint64(from), uint64(to)))))
}
