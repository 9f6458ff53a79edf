package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job (compile
// workloads) or one planned request (store-mixed) share ID; Parent is the
// index of the enclosing span in the tracer, -1 for a root.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same composed code runs untraced to measure the
// tracing overhead.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNs: now})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[h].EndNs = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, id int64, parent int, fn func()) {
	h := t.begin(name, id, parent)
	fn()
	t.end(h)
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of its interval that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		covered := unionNs(t.spans, children[i], s.StartNs, s.EndNs)
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// unionNs is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func unionNs(spans []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].StartNs, lo), min(spans[i].EndNs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for k, v := range ivs {
		switch {
		case k == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// write stores the spans and the run's provenance as one JSON document.
func (t *tracer) write(path string, prov provenance) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
