package metrics

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(HistogramOpts{}) // default: [2^-13 s, 2^4 s)
	// Underflow: zero, negative, NaN, below range.
	for _, v := range []float64{0, -1, math.NaN(), 1e-6} {
		h.Observe(v)
	}
	// In range.
	h.Observe(0.001)
	h.Observe(0.01)
	h.Observe(0.1)
	// Overflow.
	h.Observe(100)
	st := h.Stats()
	if st.Count != 8 {
		t.Fatalf("count = %d, want 8", st.Count)
	}
	if !(st.Min < st.P50 && st.P50 <= st.P99 && st.P99 <= st.Max) {
		t.Fatalf("quantiles not ordered: %+v", st)
	}
	if st.Mean <= 0 {
		t.Fatalf("mean = %v, want > 0", st.Mean)
	}
	// Bucket resolution: the midpoint estimate of a value must be within
	// ~19% (one sub-bucket) of the true value.
	h2 := NewHistogram(HistogramOpts{})
	h2.Observe(0.04)
	if st := h2.Stats(); st.P50 < 0.04*0.8 || st.P50 > 0.04*1.25 {
		t.Fatalf("midpoint estimate %v too far from 0.04", st.P50)
	}
}

func TestHistogramEmptyStats(t *testing.T) {
	h := NewHistogram(HistogramOpts{})
	if st := h.Stats(); st.Count != 0 || st.Mean != 0 || st.P99 != 0 {
		t.Fatalf("empty histogram stats = %+v, want zeros", st)
	}
}

// The record path of every instrument must not allocate: these are the
// calls on the simulator's per-packet path.
func TestRecordPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	h := reg.Histogram("h", HistogramOpts{})
	if n := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Counter records allocate %.1f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.042) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f times", n)
	}
}

// LocalHistogram is the single-writer tier: each registration owns a
// private instance, Observe is a plain increment, and the registry sums
// every same-name instance (plus any atomic histogram) at snapshot time.
func TestLocalHistogramMergesAtSnapshot(t *testing.T) {
	reg := NewRegistry()
	a := reg.LocalHistogram("d", HistogramOpts{})
	b := reg.LocalHistogram("d", HistogramOpts{})
	if a == b {
		t.Fatal("LocalHistogram must return a private instance per registration")
	}
	a.Observe(0.01)
	a.Observe(0.01)
	b.Observe(0.02)
	reg.Histogram("d", HistogramOpts{}).Observe(0.04)
	st := reg.Snapshot().Histograms["d"]
	if st.Count != 4 {
		t.Fatalf("merged count = %d, want 4 (2 + 1 local, 1 atomic)", st.Count)
	}
	if st.Min >= st.Max {
		t.Fatalf("merged stats lost the spread: %+v", st)
	}
	if a.Count() != 2 || b.Count() != 1 {
		t.Fatalf("local counts = %d, %d, want 2, 1", a.Count(), b.Count())
	}
	if n := testing.AllocsPerRun(100, func() { a.Observe(0.042) }); n != 0 {
		t.Fatalf("LocalHistogram.Observe allocates %.1f times", n)
	}
}

// ShardHistogram is LocalHistogram's shape with atomic counts: private
// instances summed by name, and a snapshot may run beside the writers
// (the race detector checks that half).
func TestShardHistogramMergesUnderConcurrentSnapshot(t *testing.T) {
	reg := NewRegistry()
	a := reg.ShardHistogram("lat", HistogramOpts{MinExp: 0, MaxExp: 10})
	b := reg.ShardHistogram("lat", HistogramOpts{MinExp: 0, MaxExp: 10})
	if a == b {
		t.Fatal("ShardHistogram must return a private instance per registration")
	}
	var wg sync.WaitGroup
	for _, h := range []*Histogram{a, b} {
		wg.Add(1)
		go func(h *Histogram) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(1 + i%500))
			}
		}(h)
	}
	for i := 0; i < 10; i++ {
		reg.Snapshot()
	}
	wg.Wait()
	if st := reg.Snapshot().Histograms["lat"]; st.Count != 2000 {
		t.Fatalf("merged count = %d, want 2000", st.Count)
	}
}

// A snapshot sums each name's registrations through one bucket vector
// it reuses across names: every name, whatever its layout and whatever
// the order the names are visited in, reads as its own instruments do.
func TestSnapshotMergesEachNameApart(t *testing.T) {
	reg := NewRegistry()
	wide, narrow := HistogramOpts{MinExp: -20, MaxExp: 10}, HistogramOpts{MinExp: 0, MaxExp: 2}
	a := reg.Histogram("a", wide)
	a.Observe(0.001)
	reg.ShardHistogram("b", narrow).Observe(1.5)
	reg.ShardHistogram("b", narrow).Observe(3)
	reg.LocalHistogram("c", wide).Observe(100)
	reg.LocalHistogram("c", wide).Observe(1e-5)
	want := map[string]HistogramStats{
		"a": a.Stats(),
		"b": func() HistogramStats {
			h := NewLocalHistogram(narrow)
			h.Observe(1.5)
			h.Observe(3)
			return h.Stats()
		}(),
		"c": func() HistogramStats {
			h := NewHistogram(wide)
			h.Observe(100)
			h.Observe(1e-5)
			return h.Stats()
		}(),
	}
	for i := 0; i < 20; i++ {
		got := reg.Snapshot().Histograms
		for name, w := range want {
			if got[name] != w {
				t.Fatalf("snapshot %d: %s = %+v, want %+v", i, name, got[name], w)
			}
		}
	}
}

func TestRegistryIdempotentByName(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Fatal("same name returned distinct counters")
	}
	if reg.Histogram("z", HistogramOpts{}) != reg.Histogram("z", HistogramOpts{MinExp: -2, MaxExp: 2}) {
		t.Fatal("same name returned distinct histograms (later opts must be ignored)")
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Inc()
	reg.Histogram("h", HistogramOpts{}).Observe(0.5)
	reg.LocalHistogram("lh", HistogramOpts{}).Observe(0.5)
	reg.CounterFunc("cf", func() int64 { return 1 })
	reg.GaugeFunc("gf", func() float64 { return 1 })
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestFuncInstrumentsSum(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("n", func() int64 { return 2 })
	reg.CounterFunc("n", func() int64 { return 3 })
	reg.Counter("n").Add(10)
	reg.GaugeFunc("v", func() float64 { return 0.5 })
	reg.GaugeFunc("v", func() float64 { return 1.5 })
	snap := reg.Snapshot()
	if snap.Counters["n"] != 15 {
		t.Fatalf("counter funcs + handle = %d, want 15", snap.Counters["n"])
	}
	if snap.Gauges["v"] != 2 {
		t.Fatalf("gauge funcs = %v, want 2", snap.Gauges["v"])
	}
}

// Snapshot JSON must be byte-stable: same state, same bytes. Go
// marshals maps with sorted keys, which this locks in.
func TestSnapshotJSONDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b").Add(2)
	reg.Counter("a").Add(1)
	reg.GaugeFunc("g", func() float64 { return 3.5 })
	reg.Histogram("h", HistogramOpts{}).Observe(0.01)
	var one, two bytes.Buffer
	if err := reg.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatalf("snapshot JSON differs between identical writes:\n%s\nvs\n%s", one.String(), two.String())
	}
}

// One registry hammered from many goroutines — registration, recording,
// and snapshotting all concurrently. Run under -race this is the
// registry's concurrency contract for handle instruments.
func TestRegistryConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared.count")
			h := reg.Histogram("shared.hist", HistogramOpts{})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%100+1) / 1000)
				if i%500 == 0 {
					reg.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap.Counters["shared.count"]; got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Histograms["shared.hist"].Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}
