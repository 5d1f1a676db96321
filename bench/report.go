package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// endToEndValues maps an untraced run onto the end-to-end metrics.
func (r *runResult) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":           median(groupMeans(r.setupS, setups)),
		"throughput_tps":    r.est.throughputTPS,
		"lat_mean_ms":       r.est.latMeanMs,
		"cpu_us_per_txn":    r.est.cpuUsPerTxn,
		"net_bytes_per_txn": per(float64(r.ctr.netBytes), r.ctr.committed),
	}
}

// groupMeans splits xs into k consecutive groups (fewer if xs is shorter)
// and returns each group's mean.
func groupMeans(xs []float64, k int) []float64 {
	k = min(k, len(xs))
	means := make([]float64, 0, k)
	for g := 0; g < k; g++ {
		group := xs[g*len(xs)/k : (g+1)*len(xs)/k]
		var sum float64
		for _, x := range group {
			sum += x
		}
		means = append(means, sum/float64(len(group)))
	}
	return means
}

func per(x float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// quantile is the exact q-quantile of sorted (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// perLayerValues maps the recorded pass r and the telemetry pass tel onto
// the run-counter half of the per-layer metrics; the probes fill in the
// rest. Everything comes from r except what only telemetry yields.
func (r *runResult) perLayerValues(env *environment, tel *runResult) map[string]float64 {
	c := &r.ctr
	n := c.committed
	phase := func(i int) float64 { return per(c.phaseMs[i], c.phaseCommits) }
	var attributed float64
	for i := 0; i < numPhases; i++ {
		attributed += c.phaseMs[i]
	}
	// Exact latencies: the bench's stopwatch in-process; on the cluster the
	// client is out of reach, and the stitched trace of the telemetry pass
	// (client submit → commit) is the only exact source.
	lats := r.latencies
	if len(lats) == 0 {
		lats = tel.latencies
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }

	return map[string]float64{
		"engine.sched_ms":             phase(phaseSched),
		"engine.lock_wait_ms":         phase(phaseLockWait),
		"engine.queue_wait_ms":        phase(phaseQueueWait),
		"engine.storage_ms":           phase(phaseStorage),
		"engine.remote_wait_ms":       phase(phaseRemoteWait),
		"engine.other_ms":             phase(phaseOther),
		"engine.unattributed_pct":     100 * c.phaseMs[phaseOther] / max(attributed, 1e-9),
		"engine.lat_p50_ms":           ms(quantile(lats, 0.50)),
		"engine.lat_p95_ms":           ms(quantile(lats, 0.95)),
		"engine.lat_p99_ms":           ms(quantile(lats, 0.99)),
		"engine.lat_samples":          float64(len(lats)),
		"engine.migrations_per_txn":   per(float64(c.migrations), n),
		"engine.remote_reads_per_txn": per(float64(c.remoteReads), n),
		"engine.lost_acks":            float64(r.lostAcks + tel.lostAcks),
		"engine.stalls":               float64(r.stalls + tel.stalls),
		"engine.stall_s":              r.stallS + tel.stallS,
		"engine.rss_peak_mb":          r.rssPeakMB,

		"core.route_us_per_txn": per(c.routing.Seconds()*1e6, c.routingTxns),

		"fusion.evictions_per_txn":   per(float64(c.fusionEvictions), n),
		"fusion.owner_moves_per_txn": per(float64(c.fusionOwnerMoves), n),

		"sequencer.txns_per_batch": per(float64(c.seqTxns), c.seqBatches),

		"network.msgs_per_txn":         per(float64(c.netMsgs), n),
		"network.retransmits_per_ktxn": per(1e3*float64(c.retransmits), n),
		"network.dups_per_ktxn":        per(1e3*float64(c.dups), n),

		"journal.fsyncs_per_ktxn":        per(1e3*float64(c.fsyncs), n),
		"journal.batched_acks_per_fsync": per(float64(c.batchedAcks), c.fsyncs),

		"harness.build_s":    env.buildS,
		"harness.start_s":    r.bootParts.startS,
		"harness.seed_s":     r.bootParts.seedS,
		"harness.quiesce_ms": r.settleMs,
		"harness.twin_match": float64(r.twinChecked + tel.twinChecked),

		"telemetry.traced_tps":   tel.est.throughputTPS,
		"telemetry.overhead_pct": 100 * (1 - tel.est.throughputTPS/r.est.throughputTPS),

		"bench.poll_late_ms":         r.pollLateMs,
		"bench.little_vs_driver_pct": r.littleVsDrvr,
	}
}

// absorb adds another pass's operation counts, so that attempted and
// failed cover everything a traced run executed.
func (r *runResult) absorb(o *runResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.lostAcks += o.lostAcks
	r.stalls += o.stalls
	r.incarnations += o.incarnations
	r.reasons = append(r.reasons, o.reasons...)
}

// driverLine is the one JSON object the benchmark contract asks for as the
// last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newDriverLine(r *runResult, decls []metricDecl, values map[string]float64) (driverLine, error) {
	line := driverLine{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return line, fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return line, nil
}

// printMetrics prints every declared metric by name with its unit.
func printMetrics(title string, decls []metricDecl, values map[string]float64) {
	fmt.Printf("%s\n", title)
	for _, d := range decls {
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
}

// workloadRecord is one workload's section of result.json and of a
// history.jsonl line.
type workloadRecord struct {
	Workload     string             `json:"workload"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	Incarnations int                `json:"incarnations"`
	KeptWindows  int                `json:"kept_windows"`
	Stalls       []string           `json:"stalls,omitempty"`
	EndToEnd     map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	SelfTimeMs   map[string]float64 `json:"span_self_time_ms,omitempty"`
}

// resultFile is bench/out/result.json; the same object, on one line, is
// what a set of runs appends to bench/history.jsonl.
type resultFile struct {
	Written     time.Time        `json:"written"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds"`
	Fingerprint fingerprint      `json:"fingerprint"`
	Workloads   []workloadRecord `json:"workloads"`
}

func (env *environment) writeResult(rf *resultFile, history bool) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(env.out, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !history {
		return nil
	}
	line, err := json.Marshal(rf)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(env.root, "bench", "history.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
