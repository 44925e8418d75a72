package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// Registry owns a set of named instruments. Registration takes a mutex
// and may allocate; it happens at construction time. The returned
// handles are what hot paths record through — no lookup, no lock.
//
// Registration is idempotent: two calls with one name return the same
// handle, so components that agree on a name share one aggregated
// instrument (this is what makes a registry shared across concurrent
// simulation runs meaningful — per-run counts sum deterministically).
//
// All methods are nil-safe: calls on a nil *Registry return standalone,
// fully functional but unregistered instruments (Func registrations
// become no-ops). Components can therefore instrument unconditionally
// and let the caller decide whether anything is collected.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	hists      map[string]*histSet
	counterFns map[string][]func() int64
	gaugeFns   map[string][]func() float64
}

// histSet is every histogram registered under one name, all of its
// layout: Histogram's shared instance (also first in atomic), the
// ShardHistogram instances and the LocalHistogram instances. A snapshot
// sums their buckets.
type histSet struct {
	layout
	shared *Histogram
	atomic []*Histogram
	local  []*LocalHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		hists:      make(map[string]*histSet),
		counterFns: make(map[string][]func() int64),
		gaugeFns:   make(map[string][]func() float64),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it
// with opts on first use (later opts for the same name are ignored).
func (r *Registry) Histogram(name string, opts HistogramOpts) *Histogram {
	if r == nil {
		return NewHistogram(opts)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.named(name, opts)
	if s.shared == nil {
		s.shared = NewHistogram(opts)
		s.atomic = append(s.atomic, s.shared)
	}
	return s.shared
}

// named returns name's histSet, creating it with opts' layout on first
// use; r.mu is held.
func (r *Registry) named(name string, opts HistogramOpts) *histSet {
	s, ok := r.hists[name]
	if !ok {
		s = &histSet{layout: newLayout(opts)}
		r.hists[name] = s
	}
	return s
}

// ShardHistogram registers and returns a NEW atomic histogram under
// name: like LocalHistogram every call returns its own instance and the
// registry sums same-name instances at snapshot time, so each writer
// keeps its buckets on cache lines nobody else writes; unlike
// LocalHistogram the counts are atomic, so the registry may be
// snapshotted while the writers run — what a live server's per-shard
// instruments need. All registrations under one name must use the same
// opts, and the name must not also be registered with Histogram or
// LocalHistogram.
func (r *Registry) ShardHistogram(name string, opts HistogramOpts) *Histogram {
	h := NewHistogram(opts)
	if r == nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.named(name, opts)
	s.atomic = append(s.atomic, h)
	return h
}

// LocalHistogram registers and returns a NEW single-writer histogram
// under name — unlike Histogram, every call returns its own instance,
// so each registering component owns a private writer (the histogram
// analogue of CounterFunc: the hot path pays plain increments, the
// registry sums all same-name instances at snapshot time, and the
// snapshot caller synchronizes with the writers). All registrations
// under one name must use the same opts.
func (r *Registry) LocalHistogram(name string, opts HistogramOpts) *LocalHistogram {
	h := NewLocalHistogram(opts)
	if r == nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.named(name, opts)
	s.local = append(s.local, h)
	return h
}

// CounterFunc publishes a counter whose value is read from fn at
// snapshot time. Use it to expose a plain field a single-writer hot
// path already maintains; the snapshot caller is responsible for
// synchronizing with the writer (typically by snapshotting from the
// writer's goroutine or after it has finished). Multiple functions
// registered under one name sum.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFns[name] = append(r.counterFns[name], fn)
}

// GaugeFunc publishes a gauge computed from fn at snapshot time; see
// CounterFunc for the synchronization contract. Multiple functions
// registered under one name sum.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = append(r.gaugeFns[name], fn)
}

// Snapshot is a point-in-time copy of every registered instrument,
// ready for JSON encoding (map keys marshal sorted, so the output is
// schema-stable and deterministic for deterministic producers).
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot captures every instrument. Handle instruments are read
// atomically; Func instruments are invoked (see CounterFunc for the
// synchronization contract).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] += c.Load()
	}
	for name, fns := range r.counterFns {
		for _, fn := range fns {
			snap.Counters[name] += fn()
		}
	}
	for name, fns := range r.gaugeFns {
		for _, fn := range fns {
			snap.Gauges[name] += fn()
		}
	}
	// Histograms: sum every registration under one name into one
	// bucket vector, reused across names, and summarize it once.
	var counts []int64
	for name, s := range r.hists {
		counts = append(counts[:0], make([]int64, s.nb+2)...)
		for _, h := range s.atomic {
			addAtomicCounts(counts, h)
		}
		for _, h := range s.local {
			addCounts(counts, h.counts)
		}
		snap.Histograms[name] = s.stats(counts)
	}
	return snap
}

// addAtomicCounts sums h's buckets into dst over the shorter length.
func addAtomicCounts(dst []int64, h *Histogram) {
	for i := 0; i < len(dst) && i < len(h.counts); i++ {
		dst[i] += h.counts[i].Load()
	}
}

// addCounts sums src into dst element-wise over the shorter length.
func addCounts(dst, src []int64) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] += src[i]
	}
}

// WriteJSON writes the current snapshot as indented JSON, expvar-style.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler returns an http.Handler serving the registry's JSON snapshot,
// for an expvar-style metrics endpoint.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w)
	})
}
