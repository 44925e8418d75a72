package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call. Name is "layer:call"; Parent indexes the span
// that caused it (-1 for a root); ID is the session or run the work
// belongs to.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	ID      int32  `json:"id"`
}

// tracer records spans into a slice sized up front and writes them out
// when the benchmark ends. A nil tracer records nothing, which is how
// the same replay runs untraced to price the tracing itself.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent, id int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, ID: id, StartNs: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].EndNs = int64(time.Since(t.t0))
	}
}

// selfTimes returns each layer's self time: its spans' durations minus
// what their child spans cover, summed by the layer part of the name.
func selfTimes(spans []span) map[string]int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	byLayer := map[string]int64{}
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ":")
		byLayer[layer] += self[i]
	}
	return byLayer
}

// shares turns self times into shares of their total.
func shares(self map[string]int64) map[string]float64 {
	var total int64
	for _, ns := range self {
		total += ns
	}
	out := map[string]float64{}
	for layer, ns := range self {
		out[layer] = float64(ns) / float64(total)
	}
	return out
}

// traceFile is what trace.json holds: one span list per replay.
type traceFile struct {
	Note  string `json:"note"`
	Serve []span `json:"serve_replay"`
	Sim   []span `json:"sim_replay"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
