// Command bench is the repository's benchmark: four workloads (two on the
// in-process engine, two on a real three-process cluster), five end-to-end
// metrics measured with tracing off, and per-layer metrics from a traced
// run plus isolated layer probes. See README.md in this directory.
//
//	go run ./bench -seed 1                 # every workload, untraced then traced, result.json + history.jsonl
//	go run ./bench -workload inproc-ycsb   # one workload, both passes
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                       # one pass; the last stdout line is the result as JSON
//	go run ./bench -repeat 2               # A/A: spread of every end-to-end metric against its bound
//	go run ./bench -probes-only            # just the isolated layer probes
//	go run ./bench -quick                  # 1/20 scale smoke, in-process workloads only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	txns       int
	trace      int // 0 untraced pass, 1 traced pass, -1 both
	quick      bool
	probesOnly bool
	repeat     int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: equal seeds give equal inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long each pass measures")
	flag.IntVar(&o.txns, "txns", 0, "run exactly this many transactions per pass instead of measuring for -seconds; counts then repeat exactly for equal seeds")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass and probes (per-layer metrics); default both")
	flag.BoolVar(&o.quick, "quick", false, "smoke: 1/20 of the run length and table size, no cluster workloads")
	flag.BoolVar(&o.probesOnly, "probes-only", false, "run only the isolated layer probes")
	flag.IntVar(&o.repeat, "repeat", 1, "A/A mode: run the untraced set this many times and compare the spread with the bounds")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.trace < -1 || o.trace > 1 || o.repeat < 1 || o.seconds <= 0 || o.txns < 0 {
		return fmt.Errorf("bad flags: -trace is 0 or 1, -repeat at least 1, -seconds positive, -txns not negative")
	}
	selected := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{w}
	}
	if o.quick {
		o.seconds /= 20
		var small []*workload
		for _, w := range selected {
			if !w.cluster {
				q := *w
				q.rows = max(w.rows/20, 4096)
				small = append(small, &q)
			}
		}
		selected = small
	}

	// hermesd is needed by the cluster workloads and by the recovery probe
	// of a full-scale traced pass.
	needHermesd := !o.quick && (o.trace != 0 || o.probesOnly)
	for _, w := range selected {
		needHermesd = needHermesd || w.cluster
	}
	env, err := prepare(needHermesd)
	if err != nil {
		return err
	}
	// Children of an interrupted run must not outlive it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killStrayChildren(env)
		os.Exit(130)
	}()

	if o.probesOnly {
		rec := newSpanRec(selected[0].name)
		values, err := runProbes(env, selected[0], o.seed, o.quick, rec)
		if err != nil {
			return err
		}
		printMetrics("layer probes, inputs from "+selected[0].name, probeDecls(), values)
		return rec.write(filepath.Join(env.out, "spans-probes.json"))
	}
	if o.repeat > 1 {
		return repeatAA(env, selected, o)
	}

	rf := &resultFile{Written: time.Now().UTC(), Seed: o.seed, Seconds: o.seconds, Fingerprint: machineFingerprint(env.root)}
	var last driverLine
	for _, w := range selected {
		rec := workloadRecord{Workload: w.name}
		if o.trace != 1 {
			res, err := runWorkload(env, o.pass(w, 1, setups))
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			rec.fill(res)
			rec.EndToEnd = res.endToEndValues()
			printMetrics(fmt.Sprintf("%s, untraced: attempted %d, failed %d, %d incarnations, %d windows kept",
				w.name, res.attempted, res.failed, res.incarnations, res.est.windows), endToEnd, rec.EndToEnd)
			if last, err = newDriverLine(res, endToEnd, rec.EndToEnd); err != nil {
				return err
			}
		}
		if o.trace != 0 {
			res, values, err := tracedPass(env, w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			rec.fill(res)
			rec.PerLayer = values
			rec.SelfTimeMs = map[string]float64{}
			for name, d := range res.selfTimeByOp {
				rec.SelfTimeMs[name] = d.Seconds() * 1e3
			}
			printMetrics(fmt.Sprintf("%s, traced: attempted %d, failed %d, engine.stalls %d",
				w.name, res.attempted, res.failed, res.stalls), perLayer, values)
			if last, err = newDriverLine(res, perLayer, values); err != nil {
				return err
			}
		}
		rf.Workloads = append(rf.Workloads, rec)
	}
	headlineGap(rf)
	// A full set (every workload, both passes) is a ledger entry.
	full := o.workload == "" && o.trace == -1 && !o.quick
	if err := env.writeResult(rf, full); err != nil {
		return err
	}
	if o.workload != "" && o.trace >= 0 {
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// pass describes an untraced pass over share of the configured run length.
func (o options) pass(w *workload, share float64, nSetups int) runSpec {
	rs := runSpec{w: w, seed: o.seed, seconds: share * o.seconds, setups: nSetups, window: windowLen}
	if o.quick {
		rs.window /= 20
	}
	if o.txns > 0 {
		rs.txns = max(1, int(share*float64(o.txns))/w.batch) * w.batch
	}
	return rs
}

func (rec *workloadRecord) fill(res *runResult) {
	rec.Attempted += res.attempted
	rec.Failed += res.failed
	rec.Incarnations += res.incarnations
	rec.KeptWindows += res.est.windows
	rec.Stalls = append(rec.Stalls, res.reasons...)
}

// tracedPass produces the per-layer metrics in three steps. The first 60%
// of the time the workload runs with only the bench's own tracing on —
// spans around every call into a layer, every latency kept — and the
// layers' counters are read after it: engine telemetry is still off, so
// these are the counters of the system the end-to-end metrics describe.
// The remaining 40% runs with the engine's lifecycle tracing on, for what
// only it can give (the cluster's stitched commit latencies) and for its
// own cost: telemetry.overhead_pct. Then the isolated layer probes run.
func tracedPass(env *environment, w *workload, o options) (*runResult, map[string]float64, error) {
	rec := newSpanRec(w.name)
	first := o.pass(w, 0.6, 1)
	first.record, first.rec = true, rec
	res, err := runWorkload(env, first)
	if err != nil {
		return nil, nil, fmt.Errorf("recorded pass: %w", err)
	}
	second := o.pass(w, 0.4, 1)
	second.telemetry, second.rec = true, rec
	tel, err := runWorkload(env, second)
	if err != nil {
		return nil, nil, fmt.Errorf("telemetry pass: %w", err)
	}
	values := res.perLayerValues(env, tel)
	probes, err := runProbes(env, w, o.seed, o.quick, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	for name, v := range probes {
		values[name] = v
	}
	res.absorb(tel)
	res.selfTimeByOp = rec.selfTimes()
	if err := rec.write(filepath.Join(env.out, "spans-"+w.name+".json")); err != nil {
		return nil, nil, err
	}
	return res, values, nil
}

// headlineGap prints the emulation-to-cluster CPU gap when both twins ran.
func headlineGap(rf *resultFile) {
	cpu := map[string]float64{}
	for _, rec := range rf.Workloads {
		cpu[rec.Workload] = rec.EndToEnd["cpu_us_per_txn"]
	}
	if in, cl := cpu["inproc-ycsb"], cpu["cluster-ycsb"]; in > 0 && cl > 0 {
		fmt.Printf("headline: cluster-ycsb spends %.1fx the CPU per transaction of inproc-ycsb (%.1f vs %.1f us)\n", cl/in, cl, in)
	}
}
