package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// clockProbes is how many /clock round trips the offset estimator makes
// per process; the probe with the smallest RTT wins (its midpoint is the
// least uncertain).
const clockProbes = 5

// ProcTrace is one process's exported event log plus its clock alignment
// against the collector.
type ProcTrace struct {
	// Worker is the process index (== its engine node id).
	Worker int `json:"worker"`
	// OffsetNs is the process clock minus the collector clock: subtract
	// it from an exported timestamp to map the event onto the collector's
	// timeline.
	OffsetNs int64 `json:"offset_ns"`
	// RTTNs is the winning probe's round-trip time; the offset estimate
	// is uncertain by at most ±RTTNs/2 (the server could have stamped
	// anywhere inside the round trip).
	RTTNs int64 `json:"rtt_ns"`
	// ServerNowNs is the exporter's clock when the stream was written.
	ServerNowNs int64 `json:"server_now_ns"`
	// Events is the process's drained event log (exporter clock).
	Events []telemetry.Event `json:"-"`
}

// UncertaintyNs bounds this process's alignment error.
func (p *ProcTrace) UncertaintyNs() int64 { return p.RTTNs/2 + 1 }

// ClusterTrace is the collected cluster-wide event set: every process's
// export, clock-aligned onto the collector's timeline.
type ClusterTrace struct {
	Procs []ProcTrace
	// BaseNs is the earliest aligned timestamp across all processes (the
	// trace origin for relative-time rendering).
	BaseNs int64
}

// SlackNs is the worst-case cross-process alignment error: two events
// from different processes can disagree with real time by at most the
// sum of the two largest per-process uncertainties.
func (ct *ClusterTrace) SlackNs() int64 {
	var a, b int64
	for i := range ct.Procs {
		u := ct.Procs[i].UncertaintyNs()
		if u > a {
			a, b = u, a
		} else if u > b {
			b = u
		}
	}
	return a + b
}

// clockOffset estimates worker i's clock offset against this process
// using the NTP request/response-midpoint trick over /clock.
func (c *Cluster) clockOffset(i int) (offsetNs, rttNs int64, err error) {
	type clockResp struct {
		NowUnixNs int64 `json:"now_unix_ns"`
	}
	rttNs = -1
	for p := 0; p < clockProbes; p++ {
		t0 := time.Now().UnixNano()
		body, gerr := c.getRaw(i, "/clock")
		t3 := time.Now().UnixNano()
		if gerr != nil {
			return 0, 0, gerr
		}
		var cr clockResp
		if jerr := json.Unmarshal(body, &cr); jerr != nil {
			return 0, 0, fmt.Errorf("harness: worker %d /clock: %w", i, jerr)
		}
		rtt := t3 - t0
		if rttNs < 0 || rtt < rttNs {
			rttNs = rtt
			offsetNs = cr.NowUnixNs - (t0+t3)/2 // serverTS - request midpoint
		}
	}
	return offsetNs, rttNs, nil
}

// CollectTrace pulls every process's /trace/export, estimates each
// process's clock offset against this (collector) process, and returns
// the aligned cluster-wide trace.
func (c *Cluster) CollectTrace() (*ClusterTrace, error) {
	ct := &ClusterTrace{Procs: make([]ProcTrace, 0, len(c.procs))}
	for i := range c.procs {
		off, rtt, err := c.clockOffset(i)
		if err != nil {
			return nil, fmt.Errorf("harness: clock probe of worker %d: %w", i, err)
		}
		body, err := c.getRaw(i, "/trace/export")
		if err != nil {
			return nil, fmt.Errorf("harness: trace export of worker %d: %w", i, err)
		}
		es, err := telemetry.ReadEventStream(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("harness: trace export of worker %d: %w", i, err)
		}
		ct.Procs = append(ct.Procs, ProcTrace{
			Worker: i, OffsetNs: off, RTTNs: rtt,
			ServerNowNs: es.ServerNowNs, Events: es.Events,
		})
	}
	ct.BaseNs = 0
	for pi := range ct.Procs {
		p := &ct.Procs[pi]
		for _, ev := range p.Events {
			ts := ev.TS - p.OffsetNs
			if ct.BaseNs == 0 || ts < ct.BaseNs {
				ct.BaseNs = ts
			}
		}
	}
	return ct, nil
}

// PhaseSummaries fetches every process's merged per-phase histogram
// snapshots (/phases), merges the raw buckets across the cluster, and
// returns one histogram-backed summary per component — the cluster-wide
// replacement for avg/p95-from-samples in bench reports.
func (c *Cluster) PhaseSummaries() (map[string]telemetry.PhaseSummary, error) {
	merged := make(map[string]telemetry.HistSnapshot)
	for i := range c.procs {
		var snaps map[string]telemetry.HistSnapshot
		if err := c.get(i, "/phases", &snaps); err != nil {
			return nil, fmt.Errorf("harness: phases of worker %d: %w", i, err)
		}
		for name, s := range snaps {
			m := merged[name]
			m.Merge(s)
			merged[name] = m
		}
	}
	out := make(map[string]telemetry.PhaseSummary, len(merged))
	for name, s := range merged {
		if s.Count == 0 {
			continue
		}
		out[name] = s.Summarize()
	}
	return out, nil
}

// TraceEvent is one aligned event in a stitched timeline.
type TraceEvent struct {
	telemetry.Event
	// AlignedTS is the event timestamp mapped onto the collector clock.
	AlignedTS int64
	// Worker is the exporting process index.
	Worker int
}

// TxnTimeline is one transaction's cross-process lifecycle, stitched by
// txn ID and sorted by aligned timestamp.
type TxnTimeline struct {
	Txn    tx.TxnID
	Events []TraceEvent
	// Committed: the timeline contains a PhaseCommitted event; CommitNode
	// and CommitWorker identify where (valid only when Committed).
	Committed    bool
	CommitNode   tx.NodeID
	CommitWorker int
	// Complete: the chain enqueued -> sequenced -> batched -> routed ->
	// committed is fully present.
	Complete bool
	// BackstepNs is the worst causal-order clock violation along the
	// critical chain (enqueued, batched@committer, routed@committer,
	// committed): 0 when aligned timestamps are monotonic, otherwise the
	// largest backward step in nanoseconds. Sequenced is deliberately not
	// on the chain: it is stamped when the submitting process schedules
	// the batch, which is concurrent with — not causally before — the
	// committing process's own arrival.
	BackstepNs int64
}

// Stitch groups the aligned events by transaction ID into cross-process
// timelines (node-scope txn-0 markers are skipped), sorted by txn ID.
func (ct *ClusterTrace) Stitch() []TxnTimeline {
	byTxn := make(map[tx.TxnID]*TxnTimeline)
	for pi := range ct.Procs {
		p := &ct.Procs[pi]
		for _, ev := range p.Events {
			if ev.Txn == 0 {
				continue // crash/replay/failover markers, not transactions
			}
			tl := byTxn[ev.Txn]
			if tl == nil {
				tl = &TxnTimeline{Txn: ev.Txn}
				byTxn[ev.Txn] = tl
			}
			tl.Events = append(tl.Events, TraceEvent{
				Event: ev, AlignedTS: ev.TS - p.OffsetNs, Worker: p.Worker,
			})
		}
	}
	out := make([]TxnTimeline, 0, len(byTxn))
	for _, tl := range byTxn {
		sort.SliceStable(tl.Events, func(i, j int) bool {
			a, b := tl.Events[i], tl.Events[j]
			if a.AlignedTS != b.AlignedTS {
				return a.AlignedTS < b.AlignedTS
			}
			return a.Phase < b.Phase
		})
		tl.analyze()
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Txn < out[j].Txn })
	return out
}

// analyze fills the derived fields from the sorted event list.
func (tl *TxnTimeline) analyze() {
	var have [16]bool
	for _, ev := range tl.Events {
		if int(ev.Phase) < len(have) {
			have[ev.Phase] = true
		}
		if ev.Phase == telemetry.PhaseCommitted {
			tl.Committed = true
			tl.CommitNode = ev.Node
			tl.CommitWorker = ev.Worker
		}
	}
	tl.Complete = have[telemetry.PhaseEnqueued] && have[telemetry.PhaseSequenced] &&
		have[telemetry.PhaseBatched] && have[telemetry.PhaseRouted] &&
		have[telemetry.PhaseCommitted]
	if !tl.Committed {
		return
	}
	// Critical chain: the causally ordered path of the commit. Batched and
	// Routed occur on every node; only the committing node's copies are on
	// the commit path. The client submit (Enqueued) happens-before the
	// leader seals the batch, which happens-before any node receives it —
	// so Enqueued -> Batched@committer is a true cross-process edge.
	// Sequenced is NOT on the chain: the submitting process stamps it at
	// its own batch arrival, concurrent with the committer's.
	chain := make([]TraceEvent, 0, 4)
	appendPhase := func(ph telemetry.Phase, node tx.NodeID, anyNode bool) {
		for _, ev := range tl.Events {
			if ev.Phase == ph && (anyNode || ev.Node == node) {
				chain = append(chain, ev)
				return
			}
		}
	}
	appendPhase(telemetry.PhaseEnqueued, 0, true)
	appendPhase(telemetry.PhaseBatched, tl.CommitNode, false)
	appendPhase(telemetry.PhaseRouted, tl.CommitNode, false)
	appendPhase(telemetry.PhaseCommitted, tl.CommitNode, false)
	for i := 1; i < len(chain); i++ {
		if back := chain[i-1].AlignedTS - chain[i].AlignedTS; back > tl.BackstepNs {
			tl.BackstepNs = back
		}
	}
}

// TraceStats summarizes a stitched trace against the cluster-tracing
// acceptance bar: the fraction of committed transactions with a complete
// cross-process span chain and the worst clock-alignment violation.
type TraceStats struct {
	Txns             int     `json:"txns"`
	Committed        int     `json:"committed"`
	Complete         int     `json:"complete"`
	CompleteFraction float64 `json:"complete_fraction"`
	// MaxBackstepNs is the worst critical-chain clock backstep across all
	// committed transactions; it must stay within SlackNs for the trace
	// to count as monotonic under clock alignment.
	MaxBackstepNs int64 `json:"max_backstep_ns"`
	SlackNs       int64 `json:"slack_ns"`
}

// Stats computes the acceptance summary of a stitched trace.
func (ct *ClusterTrace) Stats(timelines []TxnTimeline) TraceStats {
	st := TraceStats{Txns: len(timelines), SlackNs: ct.SlackNs()}
	for i := range timelines {
		tl := &timelines[i]
		if !tl.Committed {
			continue
		}
		st.Committed++
		if tl.Complete {
			st.Complete++
		}
		if tl.BackstepNs > st.MaxBackstepNs {
			st.MaxBackstepNs = tl.BackstepNs
		}
	}
	if st.Committed > 0 {
		st.CompleteFraction = float64(st.Complete) / float64(st.Committed)
	}
	return st
}
