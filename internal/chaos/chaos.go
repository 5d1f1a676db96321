// Package chaos provides deterministic adversarial-timing tooling for the
// engine: a seeded fault-injecting network.Transport wrapper and an
// equivalence harness (harness.go) that runs the same totally ordered
// workload under many fault schedules and asserts byte-identical final
// state. The whole value proposition of a deterministic database is that
// message timing must not matter (PAPER.md, Algorithm 1); this package is
// the tooling that lets refactors of the hot paths prove they kept that
// property.
//
// Every fault the wrapper injects preserves the Transport contract: links
// stay FIFO per (from, to) pair, and no message is ever dropped or
// duplicated — delays, spikes, partitions, and throttling only stretch
// time. A schedule is fully determined by its seed: each link draws its
// fault sequence from its own PRNG (seeded from the schedule seed and the
// link endpoints) in message order, so a logged seed reproduces the exact
// per-link fault pattern regardless of goroutine interleaving.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/clock"
	"hermes/internal/network"
	"hermes/internal/tx"
)

// Schedule describes one deterministic fault schedule. The zero value
// injects no faults (a pass-through wrapper).
type Schedule struct {
	// Name labels the schedule in harness failure reports.
	Name string
	// Seed determines every random draw; identical seeds reproduce the
	// identical per-link fault pattern.
	Seed int64

	// Jitter adds a uniform per-message latency in [0, Jitter).
	Jitter time.Duration
	// SpikeProb is the per-message probability of a bounded delay spike
	// of uniform magnitude in [0, SpikeDelay).
	SpikeProb  float64
	SpikeDelay time.Duration
	// PartitionProb is the per-message probability that the link drops
	// into a transient partition for a uniform duration in
	// [0, PartitionDur). Messages sent meanwhile queue behind the outage
	// and redeliver in order once it heals (head-of-line blocking, as on
	// a real reconnecting link).
	PartitionProb float64
	PartitionDur  time.Duration
	// BytesPerSecond throttles each link's bandwidth; a message of n
	// wire bytes occupies the link for n/BytesPerSecond (0 = unlimited).
	BytesPerSecond float64

	// DropProb is the per-message probability that the link silently
	// discards a message; DupProb the probability that it delivers one
	// twice. Both break the base Transport contract, so schedules using
	// them require the engine's reliable-delivery layer (RequiresReliable)
	// to restore exactly-once in-order delivery above the faulty link.
	DropProb float64
	DupProb  float64
	// Crashes lists node kill/restart events the harness executes during
	// the run. They also require the reliable layer (the delivery log is
	// what the restarted node replays).
	Crashes []Crash
	// LeaderKills lists sequencer-leader kill/restart events: the current
	// leader is crashed, a standby promotes itself, and the killed replica
	// restarts as a standby of the new epoch. They require the reliable
	// layer and a cluster with sequencer standbys (Spec.SeqStandbys).
	LeaderKills []LeaderKill

	// Disk, when set, runs every node's delivery journal over a
	// fault-injecting in-memory filesystem (torn writes, short writes,
	// failed fsyncs) and verifies crash recovery of the journal at each
	// node-crash event and at end of run (see disk.go). Requires the
	// reliable layer (the journal hooks hang off it).
	Disk *DiskFaults
}

// Crash is one seeded node kill: the victim is killed once its scheduler
// has consumed AfterFrac of the run's batches, stays down for Downtime,
// then restarts and replays. The trigger is a point in the deterministic
// batch stream, so "when" a crash hits is reproducible even though the
// kill itself is wall-clock asynchronous.
type Crash struct {
	// Node indexes the victim (modulo the cluster size).
	Node int
	// AfterFrac in [0,1) positions the kill within the batch stream.
	AfterFrac float64
	// Downtime is how long the node stays dead before restarting.
	Downtime time.Duration
}

// LeaderKill is one seeded kill of the total-order leader: once node 0's
// scheduler has consumed AfterFrac of the run's batches, the harness
// crashes the current sequencer leader, waits Downtime, and restarts the
// killed replica once a standby has taken over. Like Crash, the trigger
// is a point in the deterministic batch stream.
type LeaderKill struct {
	// AfterFrac in [0,1) positions the kill within the batch stream.
	AfterFrac float64
	// Downtime is how long the killed replica stays dead before it
	// restarts and rejoins as a standby.
	Downtime time.Duration
}

// String summarizes the schedule for failure reports.
func (s Schedule) String() string {
	return fmt.Sprintf("%s(seed=%d)", s.Name, s.Seed)
}

// faulty reports whether the schedule injects anything at the transport.
func (s Schedule) faulty() bool {
	return s.Jitter > 0 || s.SpikeProb > 0 || s.PartitionProb > 0 ||
		s.BytesPerSecond > 0 || s.DropProb > 0 || s.DupProb > 0
}

// RequiresReliable reports whether the schedule's faults exceed what the
// base Transport contract tolerates: message loss, duplication, or node
// crashes all need the engine's reliable-delivery layer underneath.
func (s Schedule) RequiresReliable() bool {
	return s.DropProb > 0 || s.DupProb > 0 || len(s.Crashes) > 0 || len(s.LeaderKills) > 0 ||
		s.Disk != nil
}

// Schedules returns the standard matrix of distinct fault schedules used
// by the equivalence suite, all derived from seed: a fault-free baseline,
// pure jitter, delay spikes, transient partitions, and a mixed schedule
// with bandwidth throttling. The magnitudes are scaled for unit tests
// (microseconds to a few milliseconds) so a full matrix stays fast.
func Schedules(seed int64) []Schedule {
	return []Schedule{
		{Name: "baseline", Seed: seed},
		{Name: "jitter", Seed: seed + 1, Jitter: 2 * time.Millisecond},
		{Name: "spikes", Seed: seed + 2, Jitter: 200 * time.Microsecond,
			SpikeProb: 0.05, SpikeDelay: 8 * time.Millisecond},
		{Name: "partitions", Seed: seed + 3, Jitter: 100 * time.Microsecond,
			PartitionProb: 0.02, PartitionDur: 20 * time.Millisecond},
		{Name: "mixed", Seed: seed + 4, Jitter: time.Millisecond,
			SpikeProb: 0.03, SpikeDelay: 5 * time.Millisecond,
			PartitionProb: 0.01, PartitionDur: 10 * time.Millisecond,
			BytesPerSecond: 4 << 20},
	}
}

// LossySchedules returns the fault schedules that exceed the base
// Transport contract — drops, duplicates, and a combined
// drop+duplicate+mid-run-crash schedule — all requiring the reliable
// layer. They extend Schedules(seed) in the equivalence suite: every run
// must still reach state byte-identical to the fault-free baseline.
func LossySchedules(seed int64) []Schedule {
	return []Schedule{
		{Name: "drops", Seed: seed + 10, Jitter: 300 * time.Microsecond,
			DropProb: 0.05},
		{Name: "dups", Seed: seed + 11, Jitter: 300 * time.Microsecond,
			DupProb: 0.08},
		{Name: "lossy-crash", Seed: seed + 12, Jitter: 200 * time.Microsecond,
			DropProb: 0.03, DupProb: 0.03,
			Crashes: []Crash{{Node: 1, AfterFrac: 0.4, Downtime: 30 * time.Millisecond}}},
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
	return []Schedule{
		{Name: "leader-kill", Seed: seed + 20, Jitter: 200 * time.Microsecond,
			LeaderKills: []LeaderKill{{AfterFrac: 0.4, Downtime: 20 * time.Millisecond}}},
		{Name: "leader-kill-lossy-crash", Seed: seed + 21, Jitter: 200 * time.Microsecond,
			DropProb: 0.03, DupProb: 0.03,
			Crashes:     []Crash{{Node: 1, AfterFrac: 0.3, Downtime: 30 * time.Millisecond}},
			LeaderKills: []LeaderKill{{AfterFrac: 0.6, Downtime: 20 * time.Millisecond}}},
	}
}

// Transport wraps an inner transport with seeded fault injection. It is
// safe for concurrent Send and preserves per-link FIFO order: every
// cross-node message funnels through its link's single delivery
// goroutine, which applies the link's fault sequence in message order.
type Transport struct {
	inner network.Transport
	sched Schedule
	clk   clock.Clock

	mu     sync.Mutex
	links  map[[2]tx.NodeID]*faultLink
	closed bool

	quit chan struct{}
	wg   sync.WaitGroup

	faults  atomic.Int64 // messages that received a non-zero delay
	delayed atomic.Int64 // total injected delay, ns
	dropped atomic.Int64 // messages silently discarded
	dupped  atomic.Int64 // messages delivered twice
}

type faultLink struct {
	ch chan network.Message
}

// Wrap builds a fault-injecting wrapper around inner. clk may be nil for
// the wall clock. Local sends (From == To) and fault-free schedules pass
// straight through.
func Wrap(inner network.Transport, sched Schedule, clk clock.Clock) *Transport {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Transport{
		inner: inner,
		sched: sched,
		clk:   clk,
		links: make(map[[2]tx.NodeID]*faultLink),
		quit:  make(chan struct{}),
	}
}

// Faults reports how many messages received an injected delay and the
// total injected delay so far — harness sanity checks use it to prove a
// schedule actually exercised the system.
func (t *Transport) Faults() (messages int64, totalDelay time.Duration) {
	return t.faults.Load(), time.Duration(t.delayed.Load())
}

// Loss reports how many messages the schedule discarded and duplicated.
func (t *Transport) Loss() (dropped, dupped int64) {
	return t.dropped.Load(), t.dupped.Load()
}

// Send implements network.Transport.
func (t *Transport) Send(m network.Message) error {
	if m.From == m.To || !t.sched.faulty() {
		return t.inner.Send(m)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("chaos: transport closed")
	}
	lk := t.links[[2]tx.NodeID{m.From, m.To}]
	if lk == nil {
		lk = &faultLink{ch: make(chan network.Message, 8192)}
		t.links[[2]tx.NodeID{m.From, m.To}] = lk
		t.wg.Add(1)
		go t.deliverLoop(lk, linkRand(t.sched.Seed, m.From, m.To))
	}
	t.mu.Unlock()
	select {
	case lk.ch <- m:
		return nil
	case <-t.quit:
		return fmt.Errorf("chaos: transport closed")
	}
}

// deliverLoop applies the link's fault sequence in message order. The
// PRNG is owned by this goroutine and consumed strictly in per-link
// message order, so the fault pattern depends only on (seed, link,
// message index) — never on cross-link goroutine interleaving.
func (t *Transport) deliverLoop(lk *faultLink, rng *rand.Rand) {
	defer t.wg.Done()
	for {
		select {
		case <-t.quit:
			return
		case m := <-lk.ch:
			if d := t.delayFor(rng, m.WireSize()); d > 0 {
				t.faults.Add(1)
				t.delayed.Add(int64(d))
				t.sleep(d)
			}
			drop, dup := t.lossFor(rng)
			if drop {
				t.dropped.Add(1)
				continue
			}
			// Send errors only when the inner transport has closed
			// mid-shutdown; nothing useful to do with them here.
			_ = t.inner.Send(m)
			if dup {
				t.dupped.Add(1)
				_ = t.inner.Send(m)
			}
		}
	}
}

// delayFor draws the next message's injected delay from the link PRNG.
// Draw order is fixed (jitter, spike, partition) so the consumed random
// stream — and therefore every later draw — is identical across runs.
func (t *Transport) delayFor(rng *rand.Rand, wireBytes int) time.Duration {
	s := t.sched
	var d time.Duration
	if s.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(s.Jitter)))
	}
	if s.SpikeProb > 0 && rng.Float64() < s.SpikeProb && s.SpikeDelay > 0 {
		d += time.Duration(rng.Int63n(int64(s.SpikeDelay)))
	}
	if s.PartitionProb > 0 && rng.Float64() < s.PartitionProb && s.PartitionDur > 0 {
		// The link goes down: this and all queued messages wait out the
		// outage, then redeliver in order.
		d += time.Duration(rng.Int63n(int64(s.PartitionDur)))
	}
	if s.BytesPerSecond > 0 {
		d += time.Duration(float64(wireBytes) / s.BytesPerSecond * float64(time.Second))
	}
	return d
}

// lossFor draws the next message's drop/duplicate fate. The draws are
// guarded so schedules without loss consume exactly the random stream
// they always did — legacy schedules reproduce their historical fault
// patterns bit-for-bit.
func (t *Transport) lossFor(rng *rand.Rand) (drop, dup bool) {
	s := t.sched
	if s.DropProb > 0 {
		drop = rng.Float64() < s.DropProb
	}
	if s.DupProb > 0 {
		dup = rng.Float64() < s.DupProb
	}
	return drop, dup
}

// sleep waits d on the injected clock but returns early on shutdown.
func (t *Transport) sleep(d time.Duration) {
	done := make(chan struct{})
	go func() {
		t.clk.Sleep(d)
		close(done)
	}()
	select {
	case <-done:
	case <-t.quit:
	}
}

// Recv implements network.Transport.
func (t *Transport) Recv(node tx.NodeID) <-chan network.Message {
	return t.inner.Recv(node)
}

// Close implements network.Transport. Messages still queued behind an
// outage are dropped (the cluster is stopping), then the inner transport
// is closed.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	close(t.quit)
	t.wg.Wait()
	t.inner.Close()
}

// linkRand derives the per-link PRNG: a splitmix64-style mix of the
// schedule seed and both endpoints, so every link gets an independent but
// fully reproducible stream.
func linkRand(seed int64, from, to tx.NodeID) *rand.Rand {
	z := uint64(seed) ^ uint64(from)*0x9E3779B97F4A7C15 ^ uint64(to)*0xC2B2AE3D27D4EB4F
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}
