package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's side of each boundary — build, boot, seed,
// each incarnation, sampled transactions, quiesce, digests, twin, each
// probe — kept in memory and written when the run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the recorder's origin
	EndNs    int64  `json:"end_ns"`
}

// spanRec collects spans. A nil recorder records nothing, so the untraced
// run pays a nil check per call.
type spanRec struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanRec(workload string) *spanRec {
	return &spanRec{workload: workload, origin: time.Now()}
}

// start opens a span under parent and returns its id (0 on a nil recorder).
func (r *spanRec) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	return r.add(parent, name, time.Now(), time.Time{})
}

func (r *spanRec) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// add records a span whose times the caller measured itself.
func (r *spanRec) add(parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	s := span{Parent: parent, Name: name, Workload: r.workload, StartNs: start.Sub(r.origin).Nanoseconds()}
	if !end.IsZero() {
		s.EndNs = end.Sub(r.origin).Nanoseconds()
	}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover (overlapping children count once).
func (r *spanRec) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, upTo := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, upTo), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

func (r *spanRec) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
