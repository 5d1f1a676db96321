package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// gauge samples a value through a callback at snapshot time. The callback
// must be safe to invoke from any goroutine and must not mutate anything.
type gauge struct {
	name string
	help string
	fn   func() float64
}

// Sample is one metric observation in a registry snapshot.
type Sample struct {
	// Name is the full metric name, e.g. `hermes_fusion_occupancy{node="0"}`.
	Name string
	// Value is the sampled value.
	Value float64
}

// Registry holds a set of named gauges and produces atomic snapshots: one
// lock acquisition covers the whole metric list, and every gauge is read
// exactly once per snapshot.
type Registry struct {
	mu     sync.Mutex
	gauges []gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Gauge registers a sampled gauge. name may carry a Prometheus label
// suffix (`{node="3"}`); the part before the brace is the metric family.
// Duplicate full names are replaced so a
// rebuilt component (e.g. a restarted node) can re-register its closure.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.gauges {
		if r.gauges[i].name == name {
			r.gauges[i].fn = fn
			return
		}
	}
	r.gauges = append(r.gauges, gauge{name: name, help: help, fn: fn})
}

// Snapshot reads every metric once under the registry lock and returns
// the samples sorted by name.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	out := make([]Sample, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, Sample{Name: g.name, Value: g.fn()})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SnapshotMap returns the snapshot as a name -> value map (run reports).
func (r *Registry) SnapshotMap() map[string]float64 {
	snap := r.Snapshot()
	out := make(map[string]float64, len(snap))
	for _, s := range snap {
		out[s.Name] = s.Value
	}
	return out
}

// family strips a label suffix: `a{b="c"}` -> `a`.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # HELP / # TYPE header per metric family,
// then every sample of that family. A family named *_total is a counter
// (its callback reads a count that only grows while the process lives);
// every other family is a gauge.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Gather help per family under the lock, then render from the
	// consistent snapshot.
	r.mu.Lock()
	helps := make(map[string]string)
	for _, g := range r.gauges {
		f := family(g.name)
		if _, ok := helps[f]; !ok {
			helps[f] = g.help
		}
	}
	r.mu.Unlock()
	snap := r.Snapshot()
	// Group strictly by family so each # TYPE header appears exactly once
	// even when sort-by-full-name would interleave families.
	sort.SliceStable(snap, func(i, j int) bool {
		fi, fj := family(snap[i].Name), family(snap[j].Name)
		if fi != fj {
			return fi < fj
		}
		return snap[i].Name < snap[j].Name
	})

	var lastFam string
	for _, s := range snap {
		f := family(s.Name)
		if f != lastFam {
			if h := helps[f]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f, h); err != nil {
					return err
				}
			}
			typ := "gauge"
			if strings.HasSuffix(f, "_total") {
				typ = "counter"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f, typ); err != nil {
				return err
			}
			lastFam = f
		}
		if _, err := fmt.Fprintf(w, "%s %v\n", s.Name, s.Value); err != nil {
			return err
		}
	}
	return nil
}
