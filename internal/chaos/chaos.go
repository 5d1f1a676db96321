// Package chaos is the repo's fault tooling. One vocabulary, Schedule
// (schedule.go), describes every fault, and the package holds the seams
// that apply it: a seeded fault-injecting network.Transport wrapper
// (chaos.go) under the in-process engine, the in-process harness (Run,
// harness.go) with its kills and shadow journals over fault-injecting
// storage (disk.go), and a per-link TCP proxy plane (plane.go) between
// real hermesd processes. The harness runs the same totally ordered
// workload under many schedules and asserts byte-identical final state.
// The whole value proposition of a deterministic database is that message
// timing must not matter (PAPER.md, Algorithm 1); this package is the
// tooling that lets refactors of the hot paths prove they kept that
// property.
//
// Unless a schedule sets DropProb or DupProb, every fault the wrapper
// injects keeps the Transport contract: links stay FIFO per (from, to)
// pair and no message is dropped or duplicated — shapes, spikes and
// outages only stretch time. Each link draws its fault sequence from its
// own PRNG (seeded from the schedule seed and the link endpoints) in
// message order, so a logged seed reproduces the exact per-link fault
// pattern regardless of goroutine interleaving.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/network"
	"hermes/internal/tx"
)

// Transport wraps an inner transport with seeded fault injection. It is
// safe for concurrent Send and preserves per-link FIFO order: every
// cross-node message funnels through its link's single delivery
// goroutine, which applies the link's fault sequence in message order.
type Transport struct {
	inner network.Transport
	sched Schedule

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

// Wrap builds a fault-injecting wrapper around inner. It applies the
// schedule's link shapes and message faults and refuses its socket Events.
// Kills and Disk are Run's to apply; the wrapper leaves them be. Local
// sends (From == To) and fault-free schedules pass straight through.
func Wrap(inner network.Transport, sched Schedule) (*Transport, error) {
	if err := sched.eventsErr(); err != nil {
		return nil, err
	}
	return &Transport{
		inner: inner,
		sched: sched,
		links: make(map[[2]tx.NodeID]*faultLink),
		quit:  make(chan struct{}),
	}, nil
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
		go t.deliverLoop(lk, linkRand(t.sched.Seed, int(m.From), int(m.To)),
			t.sched.shapeOf(int(m.From), int(m.To)))
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
func (t *Transport) deliverLoop(lk *faultLink, rng *rand.Rand, sh Shape) {
	defer t.wg.Done()
	for {
		select {
		case <-t.quit:
			return
		case m := <-lk.ch:
			if d := t.delayFor(rng, sh, m.WireSize()); d > 0 {
				t.faults.Add(1)
				t.delayed.Add(int64(d))
				select {
				case <-time.After(d):
				case <-t.quit:
					return // the transport is closing: the message is dropped
				}
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

// delayFor draws the next message's injected delay on a link of shape sh
// from the link PRNG. Draw order is fixed (jitter, spike, outage) so the
// consumed random stream — and therefore every later draw — is identical
// across runs.
func (t *Transport) delayFor(rng *rand.Rand, sh Shape, wireBytes int) time.Duration {
	s := t.sched
	d := sh.Latency
	if sh.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(sh.Jitter)))
	}
	if s.SpikeProb > 0 && rng.Float64() < s.SpikeProb && s.SpikeDelay > 0 {
		d += time.Duration(rng.Int63n(int64(s.SpikeDelay)))
	}
	if s.OutageProb > 0 && rng.Float64() < s.OutageProb && s.OutageDur > 0 {
		// The link goes down: this and all queued messages wait out the
		// outage, then redeliver in order.
		d += time.Duration(rng.Int63n(int64(s.OutageDur)))
	}
	if sh.BytesPerSec > 0 {
		d += time.Duration(float64(wireBytes) / float64(sh.BytesPerSec) * float64(time.Second))
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
