package experiments

import (
	"fmt"
	"time"

	"hermes/internal/engine"
	"hermes/internal/migration"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/trace"
	"hermes/internal/tx"
	"hermes/internal/workload"
)

// googleTrace synthesizes the workload-driving trace for a scale.
func googleTrace(sc Scale) *trace.Cluster {
	windows := int(sc.Phase/sc.Window) + 2
	return trace.Generate(trace.DefaultConfig(sc.Nodes, windows, sc.Seed))
}

// googleGen builds the §5.2.2 generator; recordsMean/Std of 0 mean the
// paper's default 2-record transactions.
func googleGen(sc Scale, tr *trace.Cluster, recordsMean, recordsStd float64) *workload.Google {
	return workload.NewGoogle(workload.GoogleConfig{
		Rows:             sc.Rows,
		Nodes:            sc.Nodes,
		Trace:            tr,
		WindowDur:        sc.Window,
		DistributedRatio: 0.5,
		ReadWriteRatio:   0.5,
		RecordsMean:      recordsMean,
		RecordsStd:       recordsStd,
		Theta:            0.9,
		SweepPeriod:      sc.Phase, // one full global sweep per run
		Payload:          64,
		Seed:             sc.Seed + 7,
	})
}

func loadUniform(sc Scale) func(c *engine.Cluster) {
	return func(c *engine.Cluster) { c.SeedRows(sc.Rows, 64) }
}

// runGoogle measures one system on the Google workload.
func runGoogle(sc Scale, sys system, recordsMean, recordsStd float64) (*runOutput, error) {
	tr := googleTrace(sc)
	gen := googleGen(sc, tr, recordsMean, recordsStd)
	ids := nodeIDs(sc.Nodes)
	return runLoad(sc, sys, gen, loadUniform(sc), ids, ids, nil, nil)
}

// Fig1 renders the synthetic per-machine load traces standing in for the
// Google cluster trace (one series per machine, first four machines).
func Fig1(sc Scale) (*Result, error) {
	tr := googleTrace(sc)
	res := &Result{
		Name: "fig1", Title: "Synthetic Google-like machine load traces",
		XLabel: "window", YLabel: "load",
		Notes: []string{"substitute for the Google cluster-usage trace; see DESIGN.md §5"},
	}
	n := 4
	if tr.Machines() < n {
		n = tr.Machines()
	}
	for m := 0; m < n; m++ {
		s := Series{Label: fmt.Sprintf("machine-%d", m)}
		for w := 0; w < tr.Windows(); w++ {
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, tr.Load[m][w])
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig2 compares Calvin with static range partitioning, Clay, and LEAP
// under the Google workload — the motivating experiment.
func Fig2(sc Scale) (*Result, error) {
	base := partition.NewUniformRange(0, sc.Rows, sc.Nodes)
	all := standardSystems(sc, base)
	pick := map[string]bool{"Calvin": true, "Clay": true, "LEAP": true}
	res := &Result{
		Name: "fig2", Title: "Look-back vs look-present under Google workload (throughput over time)",
		XLabel: "time (s)", YLabel: "K txns/window",
	}
	for _, sys := range all {
		if !pick[sys.name] {
			continue
		}
		out, err := runGoogle(sc, sys, 0, 0)
		if err != nil {
			return nil, err
		}
		label := sys.name
		if sys.name == "Calvin" {
			label = "Range Partition"
		}
		res.Series = append(res.Series, Series{
			Label: label,
			X:     windowsX(len(out.Throughput), sc.Window),
			Y:     out.Throughput,
		})
	}
	return res, nil
}

// schismSystem trains Schism offline on the workload distribution at a
// chosen moment of the run and returns Calvin over the resulting lookup
// partitioning — the paper's "optimal at one period" yardstick.
func schismSystem(sc Scale, name string, at time.Duration) system {
	tr := googleTrace(sc)
	gen := googleGen(sc, tr, 0, 0)
	sch := migration.NewSchism()
	samples := int(sc.Rows / 4)
	if samples > 20000 {
		samples = 20000
	}
	for i := 0; i < samples; i++ {
		proc, _ := gen.Next(at)
		sch.Observe(proc.ReadSet())
	}
	assign := sch.Partition(sc.Nodes, 0.15, 3)
	fallback := partition.NewUniformRange(0, sc.Rows, sc.Nodes)
	base := partition.NewLookup(assign, fallback)
	return system{
		name:   name,
		policy: func(a []tx.NodeID) router.Policy { return router.NewCalvin(base, a) },
	}
}

// Fig6a compares Hermes against the look-back approaches: Calvin, Clay,
// and two offline Schism partitionings trained at different periods.
func Fig6a(sc Scale) (*Result, error) {
	base := partition.NewUniformRange(0, sc.Rows, sc.Nodes)
	all := standardSystems(sc, base)
	systems := []system{
		all[0], // Calvin
		all[1], // Clay
		schismSystem(sc, "Schism 1", sc.Phase/4),
		schismSystem(sc, "Schism 2", 3*sc.Phase/4),
		all[5], // Hermes
	}
	res := &Result{
		Name: "fig6a", Title: "Hermes vs look-back approaches (Google workload)",
		XLabel: "time (s)", YLabel: "txns/window",
	}
	for _, sys := range systems {
		out, err := runGoogle(sc, sys, 0, 0)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, Series{
			Label: sys.name,
			X:     windowsX(len(out.Throughput), sc.Window),
			Y:     out.Throughput,
		})
	}
	return res, nil
}

// Fig6b compares Hermes against the online approaches: Calvin, G-Store,
// T-Part, and LEAP.
func Fig6b(sc Scale) (*Result, error) {
	base := partition.NewUniformRange(0, sc.Rows, sc.Nodes)
	all := standardSystems(sc, base)
	pick := map[string]bool{"Calvin": true, "G-Store": true, "T-Part": true, "LEAP": true, "Hermes": true}
	res := &Result{
		Name: "fig6b", Title: "Hermes vs on-line approaches (Google workload)",
		XLabel: "time (s)", YLabel: "txns/window",
	}
	for _, sys := range all {
		if !pick[sys.name] {
			continue
		}
		out, err := runGoogle(sc, sys, 0, 0)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, Series{
			Label: sys.name,
			X:     windowsX(len(out.Throughput), sc.Window),
			Y:     out.Throughput,
		})
	}
	return res, nil
}

// Fig7 reports the per-transaction latency breakdown of every system
// under the Google workload. Admission wait is queue wait: the time from
// a transaction's admission into the per-key queues to the grant of its
// last key (the paper's lock wait).
func Fig7(sc Scale) (*Result, error) {
	base := partition.NewUniformRange(0, sc.Rows, sc.Nodes)
	res := &Result{
		Name: "fig7", Title: "Average latency breakdown (ms)",
		XLabel: "component", YLabel: "ms",
		Notes: []string{"components: 1=scheduling 2=queue wait 3=queue plan 4=storage 5=remote wait 6=other"},
	}
	for _, sys := range standardSystems(sc, base) {
		out, err := runGoogle(sc, sys, 0, 0)
		if err != nil {
			return nil, err
		}
		bd := out.Breakdown
		res.Series = append(res.Series, Series{
			Label: sys.name,
			X:     []float64{1, 2, 3, 4, 5, 6},
			Y:     []float64{bd.Scheduling, bd.QueueWait, bd.QueuePlan, bd.Storage, bd.RemoteWait, bd.Other},
		})
	}
	return res, nil
}

// Fig8 reports average CPU usage over time per system; Fig8b reports
// network bytes per transaction over time.
func Fig8(sc Scale) (*Result, error) {
	res := &Result{
		Name: "fig8", Title: "Average CPU usage (%) over time",
		XLabel: "time (s)", YLabel: "cpu %",
	}
	return figUtil(sc, res, func(o *runOutput) []float64 { return o.CPU })
}

// Fig8b is the network half of Fig. 8.
func Fig8b(sc Scale) (*Result, error) {
	res := &Result{
		Name: "fig8b", Title: "Network usage per transaction (bytes) over time",
		XLabel: "time (s)", YLabel: "bytes/txn",
	}
	return figUtil(sc, res, func(o *runOutput) []float64 { return o.NetPerTxn })
}

func figUtil(sc Scale, res *Result, pick func(*runOutput) []float64) (*Result, error) {
	base := partition.NewUniformRange(0, sc.Rows, sc.Nodes)
	for _, sys := range standardSystems(sc, base) {
		out, err := runGoogle(sc, sys, 0, 0)
		if err != nil {
			return nil, err
		}
		ys := pick(out)
		res.Series = append(res.Series, Series{
			Label: sys.name,
			X:     windowsX(len(ys), sc.Window),
			Y:     ys,
		})
	}
	return res, nil
}

// Fig9 sweeps transaction length — (mean, std) of the records accessed
// per transaction — and reports each system's throughput improvement over
// Calvin.
func Fig9(sc Scale) (*Result, error) {
	settings := [][2]float64{{5, 5}, {10, 5}, {10, 10}, {20, 5}, {20, 10}, {20, 20}}
	if sc.Phase < 2*time.Second {
		settings = [][2]float64{{5, 5}, {10, 5}, {20, 10}} // bench downscale
	}
	base := partition.NewUniformRange(0, sc.Rows, sc.Nodes)
	all := standardSystems(sc, base)
	res := &Result{
		Name: "fig9", Title: "Impact of transaction length: improvement over Calvin (%)",
		XLabel: "(mean,std)#", YLabel: "% improvement",
	}
	series := map[string]*Series{}
	order := []string{}
	for _, sys := range all {
		if sys.name == "Calvin" {
			continue
		}
		series[sys.name] = &Series{Label: sys.name}
		order = append(order, sys.name)
	}
	for si, set := range settings {
		calvinOut, err := runGoogle(sc, all[0], set[0], set[1])
		if err != nil {
			return nil, err
		}
		calvinT := float64(calvinOut.Committed)
		if calvinT == 0 {
			calvinT = 1
		}
		for _, sys := range all {
			if sys.name == "Calvin" {
				continue
			}
			out, err := runGoogle(sc, sys, set[0], set[1])
			if err != nil {
				return nil, err
			}
			s := series[sys.name]
			s.X = append(s.X, float64(si+1))
			s.Y = append(s.Y, (float64(out.Committed)/calvinT-1)*100)
		}
		res.Notes = append(res.Notes, fmt.Sprintf("setting %d = (mean=%.0f, std=%.0f)", si+1, set[0], set[1]))
	}
	for _, name := range order {
		res.Series = append(res.Series, *series[name])
	}
	return res, nil
}

// Fig10 sweeps Hermes's batch size and reports throughput — the §5.2.6
// trade-off between routing quality and routing cost.
func Fig10(sc Scale) (*Result, error) {
	sizes := []int{10, 30, 100, 300, 1000}
	base := partition.NewUniformRange(0, sc.Rows, sc.Nodes)
	fusionCap := int(float64(sc.Rows) * sc.FusionFrac)
	res := &Result{
		Name: "fig10", Title: "Hermes throughput vs batch size",
		XLabel: "batch size", YLabel: "txns committed",
	}
	s := Series{Label: "Hermes"}
	for _, bs := range sizes {
		scb := sc
		scb.BatchSize = bs
		out, err := runGoogle(scb, system{name: "Hermes", policy: hermesPolicy(base, fusionCap)}, 0, 0)
		if err != nil {
			return nil, err
		}
		s.X = append(s.X, float64(bs))
		s.Y = append(s.Y, float64(out.Committed))
	}
	res.Series = append(res.Series, s)
	return res, nil
}
