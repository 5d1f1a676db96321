package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile is the shape of ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// BENCHMARK.json is what the benchmark's driver reads; the declarations in
// spec.go are what the program reports. They must say the same thing.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n file %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go:\n file %+v\n code %+v", bf.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || len(bf.Command) == 0 {
		t.Errorf("paths %v, command %v", bf.Paths, bf.Command)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	// Every listed workload exists, with the reason the program gives. The
	// program may know workloads the file does not gate (see README.md).
	for _, fw := range bf.Workloads {
		w := workloadByName(fw.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json lists unknown workload %q", fw.Name)
		} else if w.why != fw.Why || len(fw.Why) > 200 {
			t.Errorf("workload %s: why differs from spec.go or exceeds 200 characters", fw.Name)
		}
	}
	// Every metric is produced either by the run or by a probe.
	run := (&runResult{}).perLayerValues(&environment{}, &runResult{})
	for _, d := range perLayer {
		if _, ok := run[d.Name]; ok == probeNames[d.Name] {
			t.Errorf("per-layer metric %s: produced by the run = %v, by a probe = %v; want exactly one", d.Name, ok, probeNames[d.Name])
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newSpanRec("w")
	at := func(ms int) time.Time { return r.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add(0, "run", at(0), at(100))
	r.add(root, "boot", at(0), at(30))
	// Overlapping children cover their union once.
	r.add(root, "txn", at(40), at(60))
	r.add(root, "txn", at(50), at(80))
	self := r.selfTimes()
	if got := self["run"]; got != 30*time.Millisecond {
		t.Errorf("run self time %v, want 30ms (100 − 30 boot − 40 of overlapping txns)", got)
	}
	if got := self["txn"]; got != 50*time.Millisecond {
		t.Errorf("txn self time %v, want 50ms", got)
	}
	var nilRec *spanRec
	nilRec.end(nilRec.start(0, "ignored"))
}

// The smoke run drives every in-process code path of the benchmark — both
// passes, the probes, result.json — at 1/20 scale. It asserts nothing
// about speed: only that outputs check out and every metric is reported.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds hermesd and runs for a few seconds")
	}
	if err := run(options{seed: 1, seconds: 10, trace: -1, quick: true, repeat: 1}); err != nil {
		t.Fatal(err)
	}
}
