package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer.  Parent is the index of the span
// that caused it (-1 for a root); spans of one workload share Workload.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the traced run ends.  begin and end
// are safe for concurrent use: the harness's OnExperiment callback and
// the two coordinator workers record from their own goroutines.  New
// spans carry the workload named last; workloads are traced one at a time.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Parent: parent, StartNs: now, EndNs: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNs = now
	return time.Duration(now - t.spans[id].StartNs)
}

// selfTimes returns, for every span, its duration minus the part of
// that interval its direct children cover.  Children of one parent may
// overlap (concurrent workers), so the covered part is the length of
// the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.StartNs
		for _, c := range iv {
			lo, hi := c[0], c[1]
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// selfByName sums self time per span name, the per-layer budget the
// traced run prints.
func selfByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += time.Duration(ns)
	}
	return out
}

// writeTrace writes the spans as one JSON array.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
