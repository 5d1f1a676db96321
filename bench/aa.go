package main

import (
	"fmt"
	"sort"
)

// repeatAA runs the untraced set o.repeat times on the same code and seed
// and holds, per workload and end-to-end metric, the spread of the repeats
// — (max − min) ÷ median — against the metric's bound. Code that has not
// changed must not look like a regression: a pair beyond its bound means
// the run is too short for this machine, and the fix is a longer run, not a
// wider bound.
func repeatAA(env *environment, selected []*workload, o options) error {
	values := map[string]map[string][]float64{} // workload → metric → one value per repeat
	for r := 0; r < o.repeat; r++ {
		for _, w := range selected {
			res, err := runWorkload(env, o.pass(w, 1, setups))
			if err != nil {
				return fmt.Errorf("repeat %d, %s: %w", r, w.name, err)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, v := range res.endToEndValues() {
				values[w.name][name] = append(values[w.name][name], v)
			}
			fmt.Printf("repeat %d: %s attempted %d failed %d\n", r+1, w.name, res.attempted, res.failed)
		}
	}
	var beyond []string
	fmt.Printf("%-16s %-20s %14s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range selected {
		for _, d := range endToEnd {
			xs := append([]float64(nil), values[w.name][d.Name]...)
			sort.Float64s(xs)
			med := median(xs)
			spread := (xs[len(xs)-1] - xs[0]) / med
			mark := ""
			// setup_s is exempt, as in the benchmark contract: it is
			// gated on medians only.
			if spread > d.Bound && d.Name != "setup_s" {
				mark = "  BEYOND BOUND"
				beyond = append(beyond, w.name+"/"+d.Name)
			}
			fmt.Printf("%-16s %-20s %14.4f %8.2f%% %6.0f%%%s\n", w.name, d.Name, med, 100*spread, 100*d.Bound, mark)
		}
	}
	if len(beyond) > 0 {
		return fmt.Errorf("A/A spread beyond the bound for %v", beyond)
	}
	return nil
}
