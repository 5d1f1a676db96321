// Package chaos is the repo's fault tooling. One vocabulary, Schedule
// (schedule.go), describes every fault, and the package holds the seams
// that apply it: a seeded link model (Model, chaos.go) that the in-process
// transport consults for every message, the in-process harness (Run,
// harness.go) with its kills and group-commit shadow journals over
// fault-injecting storage (disk.go), and a per-link TCP proxy plane (plane.go) between
// real hermesd processes. The link model and the plane time a message
// with one function (Shape.due), so a Shape means the same delay on a
// socket as in process. The harness runs the same totally ordered
// workload under many schedules and asserts byte-identical final state.
// The whole value proposition of a deterministic database is that message
// timing must not matter (PAPER.md, Algorithm 1); this package is the
// tooling that lets refactors of the hot paths prove they kept that
// property.
//
// Unless a schedule sets DropProb or DupProb, every fault the link model
// injects keeps the Transport contract: links stay FIFO per (from, to)
// pair and no message is dropped or duplicated — shapes, spikes and
// outages only stretch time. Each link draws its fault sequence from its
// own PRNG (seeded from the schedule seed and the link endpoints) in
// message order, so a logged seed reproduces the exact per-link fault
// pattern regardless of goroutine interleaving.
package chaos

import (
	"math/rand"
	"sync/atomic"
	"time"

	"hermes/internal/network"
	"hermes/internal/tx"
)

// Model is a schedule's in-process link model. Its Link method is a
// network.LinkModel: engine.Config.Links installs it under the emulated
// cluster, and every cross-node message then takes its delay, drop or
// duplicate from the schedule on its link's delivery goroutine. Delays
// are pipelined from each message's send time, as on the socket plane;
// a message also waits behind every earlier one on its link, so an
// outage holds the link until it heals and the link stays FIFO.
type Model struct {
	sched Schedule

	faults  atomic.Int64 // messages that received a non-zero delay
	delayed atomic.Int64 // total injected delay, ns
	dropped atomic.Int64 // messages silently discarded
	dupped  atomic.Int64 // messages delivered twice
}

// NewModel builds the link model of sched. It applies the schedule's link
// shapes and message faults and refuses its socket Events. Kills and Disk
// are Run's to apply; the model leaves them be.
func NewModel(sched Schedule) (*Model, error) {
	if err := sched.eventsErr(); err != nil {
		return nil, err
	}
	return &Model{sched: sched}, nil
}

// Faults reports how many messages received an injected delay and the
// total injected delay so far — harness sanity checks use it to prove a
// schedule actually exercised the system. The injected delay is what the
// schedule drew, not the time a message spent queued behind others, so a
// seed reproduces it exactly.
func (m *Model) Faults() (messages int64, totalDelay time.Duration) {
	return m.faults.Load(), time.Duration(m.delayed.Load())
}

// Loss reports how many messages the schedule discarded and duplicated.
func (m *Model) Loss() (dropped, dupped int64) {
	return m.dropped.Load(), m.dupped.Load()
}

// Link implements network.LinkModel. A fault-free schedule conditions no
// link, so its links run the transport's unconditioned path.
func (m *Model) Link(from, to tx.NodeID) network.Fate {
	if !m.sched.faulty() {
		return nil
	}
	rng := linkRand(m.sched.Seed, int(from), int(to))
	sh := m.sched.shapeOf(int(from), int(to))
	var free time.Time // the link's occupancy horizon (Shape.due)
	return func(sent time.Time, bytes int) (time.Time, int) {
		var jitter time.Duration
		if sh.Jitter > 0 {
			jitter = time.Duration(rng.Int63n(int64(sh.Jitter)))
		}
		hold := m.holdFor(rng)
		due := sh.due(sent, bytes, jitter, &free).Add(hold)
		if d := sh.Latency + jitter + sh.serialization(bytes) + hold; d > 0 {
			m.faults.Add(1)
			m.delayed.Add(int64(d))
		}
		drop, dup := m.lossFor(rng)
		switch {
		case drop:
			m.dropped.Add(1)
			return due, 0
		case dup:
			m.dupped.Add(1)
			return due, 2
		}
		return due, 1
	}
}

// holdFor draws the next message's spike and outage delay from the link
// PRNG, after its jitter. Draw order is fixed (jitter, spike, outage) so
// the consumed random stream — and therefore every later draw — is
// identical across runs.
func (m *Model) holdFor(rng *rand.Rand) time.Duration {
	s := m.sched
	var d time.Duration
	if s.SpikeProb > 0 && rng.Float64() < s.SpikeProb && s.SpikeDelay > 0 {
		d += time.Duration(rng.Int63n(int64(s.SpikeDelay)))
	}
	if s.OutageProb > 0 && rng.Float64() < s.OutageProb && s.OutageDur > 0 {
		// The link goes down: this message waits out the outage, and every
		// later one on the link waits behind it.
		d += time.Duration(rng.Int63n(int64(s.OutageDur)))
	}
	return d
}

// lossFor draws the next message's drop/duplicate fate. The draws are
// guarded so schedules without loss consume exactly the random stream
// they always did — legacy schedules reproduce their historical fault
// patterns bit-for-bit. A dropped message is never also duplicated.
func (m *Model) lossFor(rng *rand.Rand) (drop, dup bool) {
	s := m.sched
	if s.DropProb > 0 {
		drop = rng.Float64() < s.DropProb
	}
	if s.DupProb > 0 {
		dup = rng.Float64() < s.DupProb
	}
	return drop, dup
}
