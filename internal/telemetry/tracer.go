// Package telemetry is the observability layer of the emulated cluster: a
// low-overhead per-transaction lifecycle tracer backed by per-node
// lock-free ring buffers, a registry of gauges snapshotted
// atomically, and an HTTP surface (Prometheus text /metrics, pprof,
// expvar, per-transaction traces).
//
// Everything in this package is strictly observation-only: no engine
// decision may depend on a telemetry read, and no telemetry write may
// perturb the deterministic state machine. The chaos equivalence harness
// enforces this by asserting byte-identical node digests with tracing
// fully on versus fully off (internal/chaos.TelemetryEquivalence).
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hermes/internal/tx"
)

// Phase is one step of the transaction lifecycle, in pipeline order.
type Phase uint8

// Lifecycle phases, emitted by the engine as a transaction flows through
// the deterministic pipeline; Crash and Replay are node-scope markers
// (Txn 0).
const (
	// PhaseEnqueued: the client submitted the request (the event timestamp
	// is the submit time, recorded when the total order assigns the ID).
	PhaseEnqueued Phase = iota
	// PhaseSequenced: the total-order leader assigned the transaction ID.
	PhaseSequenced
	// PhaseBatched: the sealed batch containing the transaction arrived at
	// a node's scheduler queue (Aux = batch sequence).
	PhaseBatched
	// PhaseRouted: the node's routing replica planned the transaction
	// (Aux = master node, or -1 for multi-master).
	PhaseRouted
	// PhaseLocked: the node's conservative ordered locks were granted
	// (Aux = lock-wait nanoseconds).
	PhaseLocked
	// PhaseRemoteReady: every expected remote record arrived (Aux = record
	// count). Only emitted by roles that waited.
	PhaseRemoteReady
	// PhaseMigratedIn: a migrated record landed in this node's storage
	// (Aux = payload bytes).
	PhaseMigratedIn
	// PhaseExecuted: the transaction logic ran at this node (master or
	// writer role).
	PhaseExecuted
	// PhaseCommitted / PhaseAborted: the committing role answered the
	// client (Aux = total latency in nanoseconds).
	PhaseCommitted
	PhaseAborted
	// PhaseCrash marks a node kill; PhaseReplay marks the restart
	// beginning deterministic replay (Aux = replay watermark batch seq).
	PhaseCrash
	PhaseReplay
	// PhaseFailover marks a sequencer leadership change: a standby
	// promoted itself after the leader fell silent (Aux = new epoch).
	PhaseFailover
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseEnqueued:
		return "enqueued"
	case PhaseSequenced:
		return "sequenced"
	case PhaseBatched:
		return "batched"
	case PhaseRouted:
		return "routed"
	case PhaseLocked:
		return "locks-acquired"
	case PhaseRemoteReady:
		return "remote-ready"
	case PhaseMigratedIn:
		return "migrated-in"
	case PhaseExecuted:
		return "executed"
	case PhaseCommitted:
		return "committed"
	case PhaseAborted:
		return "aborted"
	case PhaseCrash:
		return "crash"
	case PhaseReplay:
		return "replay"
	case PhaseFailover:
		return "failover"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// ClusterNode is the pseudo-node for cluster-scope events (client
// submission, total-order assignment).
const ClusterNode tx.NodeID = -1

// Event is one lifecycle observation. It is a flat value (no pointers) so
// ring writes never allocate.
type Event struct {
	// TS is the observation wall-clock time in Unix nanoseconds.
	TS int64
	// Txn is the transaction (0 for node-scope markers).
	Txn tx.TxnID
	// Node is where the event was observed (ClusterNode for cluster scope).
	Node tx.NodeID
	// Phase is the lifecycle step.
	Phase Phase
	// Aux is a phase-specific detail; see the Phase constants.
	Aux int64
}

// Tracer records lifecycle events into per-node rings. The zero of
// *Tracer (nil) is a valid disabled tracer: every method is nil-safe, and
// the disabled Emit path is a single predictable branch with no clock
// read and no allocation.
type Tracer struct {
	on atomic.Bool
	// rings is immutable after construction: Emit only ever reads it.
	rings map[tx.NodeID]*Ring
	// catchAll receives events for nodes outside the construction set, so
	// no emission is ever silently lost.
	catchAll *Ring
}

// NewTracer builds a tracer with one ring of ringSize events per node
// (plus the ClusterNode ring and a catch-all). The tracer starts enabled.
func NewTracer(nodes []tx.NodeID, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = 1 << 14
	}
	t := &Tracer{rings: make(map[tx.NodeID]*Ring, len(nodes)+1)}
	for _, n := range nodes {
		t.rings[n] = NewRing(ringSize)
	}
	if _, ok := t.rings[ClusterNode]; !ok {
		t.rings[ClusterNode] = NewRing(ringSize)
	}
	t.catchAll = NewRing(ringSize)
	t.on.Store(true)
	return t
}

// Enabled reports whether Emit currently records. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// SetEnabled flips recording on or off. Nil-safe (no-op on nil).
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// Emit records one event stamped now. Nil-safe; when disabled it is a
// single branch.
func (t *Tracer) Emit(node tx.NodeID, txn tx.TxnID, ph Phase, aux int64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.put(Event{TS: time.Now().UnixNano(), Txn: txn, Node: node, Phase: ph, Aux: aux})
}

// EmitAt records one event with an explicit timestamp (e.g. the client
// submit time, observed later). Nil-safe.
func (t *Tracer) EmitAt(ts time.Time, node tx.NodeID, txn tx.TxnID, ph Phase, aux int64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.put(Event{TS: ts.UnixNano(), Txn: txn, Node: node, Phase: ph, Aux: aux})
}

func (t *Tracer) put(ev Event) {
	r, ok := t.rings[ev.Node]
	if !ok {
		r = t.catchAll
	}
	r.put(ev)
}

// Written returns how many events were ever emitted across all rings
// (including events the rings have since overwritten).
func (t *Tracer) Written() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, r := range t.rings {
		n += r.Written()
	}
	return n + t.catchAll.Written()
}

// Events drains every ring into one time-ordered event log (ties broken
// by node, then phase order). Nil-safe (returns nil).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, r := range t.rings {
		out = r.drain(out)
	}
	out = t.catchAll.drain(out)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Phase < b.Phase
	})
	return out
}

// TxnEvents returns the time-ordered events of one transaction.
func (t *Tracer) TxnEvents(txn tx.TxnID) []Event {
	var out []Event
	for _, ev := range t.Events() {
		if ev.Txn == txn {
			out = append(out, ev)
		}
	}
	return out
}

// Summary renders a flame-style per-transaction trace: one line per
// event with the offset from the first event, the node, the phase, and
// the inter-event delta — the "why did this txn wait 30 ms" view.
func (t *Tracer) Summary(txn tx.TxnID) string {
	evs := t.TxnEvents(txn)
	if len(evs) == 0 {
		return fmt.Sprintf("txn %d: no trace events (ring overwritten or tracing disabled)\n", txn)
	}
	var b strings.Builder
	t0 := evs[0].TS
	fmt.Fprintf(&b, "txn %d trace (%d events):\n", txn, len(evs))
	prev := t0
	for _, ev := range evs {
		node := "cluster"
		if ev.Node != ClusterNode {
			node = fmt.Sprintf("node %d", ev.Node)
		}
		fmt.Fprintf(&b, "  +%-12s %-8s %-15s", time.Duration(ev.TS-t0), node, ev.Phase)
		if d := time.Duration(ev.TS - prev); d > 0 {
			fmt.Fprintf(&b, " (+%s)", d)
		}
		switch ev.Phase {
		case PhaseBatched, PhaseReplay:
			fmt.Fprintf(&b, " seq=%d", ev.Aux)
		case PhaseRouted:
			if ev.Aux >= 0 {
				fmt.Fprintf(&b, " master=%d", ev.Aux)
			} else {
				fmt.Fprintf(&b, " multi-master")
			}
		case PhaseLocked:
			fmt.Fprintf(&b, " lock-wait=%s", time.Duration(ev.Aux))
		case PhaseRemoteReady:
			fmt.Fprintf(&b, " records=%d", ev.Aux)
		case PhaseMigratedIn:
			fmt.Fprintf(&b, " bytes=%d", ev.Aux)
		case PhaseCommitted, PhaseAborted:
			fmt.Fprintf(&b, " total=%s", time.Duration(ev.Aux))
		}
		b.WriteByte('\n')
		prev = ev.TS
	}
	return b.String()
}
