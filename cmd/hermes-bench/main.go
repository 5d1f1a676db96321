// Command hermes-bench regenerates the paper's tables and figures on the
// emulated cluster.
//
// Usage:
//
//	hermes-bench -list
//	hermes-bench -experiment fig6b
//	hermes-bench -experiment all -full
//	hermes-bench -experiment fig6b -report out.json
//
// With -report, every measured run also lands in a JSON report: per-window
// throughput/CPU/net series, the latency breakdown, routing cost, and the
// final telemetry gauge snapshot (fusion, migration, transport counters).
//
// Without -full, experiments run at the downscaled benchmark scale
// (seconds per system); with -full they run at a larger scale closer to
// the paper's parameter ranges (minutes per figure).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hermes/internal/experiments"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		exp     = flag.String("experiment", "", "experiment to run (fig1..fig14, or 'all')")
		full    = flag.Bool("full", false, "run at full scale (slower, closer to paper parameters)")
		nodes   = flag.Int("nodes", 0, "override node count")
		rows    = flag.Uint64("rows", 0, "override table size")
		clients = flag.Int("clients", 0, "override closed-loop client count")
		phase   = flag.Duration("phase", 0, "override measured duration per system run")
		seed    = flag.Int64("seed", 0, "override random seed")
		exec    = flag.String("exec", "", "execution backend for experiments: lock, queue, or both (fig7 prints modes side by side)")
		report  = flag.String("report", "", "write a JSON run report (per-window series, breakdowns, telemetry gauges) to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:", strings.Join(experiments.Names(), " "))
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	sc := experiments.Small()
	if *full {
		sc = experiments.Full()
	}
	if *nodes > 0 {
		sc.Nodes = *nodes
	}
	if *rows > 0 {
		sc.Rows = *rows
	}
	if *clients > 0 {
		sc.Clients = *clients
	}
	if *phase > 0 {
		sc.Phase = *phase
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	switch *exec {
	case "":
	case "both":
		sc.ExecModes = []string{"lock", "queue"}
	case "lock", "queue":
		sc.ExecMode = *exec
	default:
		fmt.Fprintf(os.Stderr, "bad -exec %q (want lock, queue, or both)\n", *exec)
		os.Exit(2)
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}

	var records []experiments.RunRecord
	current := ""
	if *report != "" {
		experiments.SetReportSink(func(rec experiments.RunRecord) {
			rec.Experiment = current
			records = append(records, rec)
		})
		defer experiments.SetReportSink(nil)
	}

	for _, name := range names {
		run, ok := experiments.Registry[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", name)
			os.Exit(2)
		}
		current = name
		start := time.Now()
		res, err := run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
	}

	if *report != "" {
		out := struct {
			Scale   experiments.Scale       `json:"scale"`
			Runs    []experiments.RunRecord `json:"runs"`
			Written time.Time               `json:"written"`
		}{Scale: sc, Runs: records, Written: time.Now()}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*report, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("report: %d runs -> %s\n", len(records), *report)
	}
}
