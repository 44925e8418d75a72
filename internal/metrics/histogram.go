package metrics

import (
	"math"
	"sync/atomic"
)

// subBuckets is the number of histogram buckets per power of two. Four
// sub-buckets give ~19% relative resolution, plenty for RTT, queue-delay,
// and ack-gap distributions whose interesting structure spans decades.
const subBuckets = 4

// HistogramOpts bounds a histogram's bucket range as powers of two:
// buckets cover [2^MinExp, 2^MaxExp) with subBuckets log-spaced buckets
// per octave, plus one underflow and one overflow bucket. The zero value
// selects a range suited to times in seconds: 2^-13 s (~122 µs) to
// 2^4 s (16 s).
type HistogramOpts struct {
	MinExp int
	MaxExp int
}

func (o HistogramOpts) withDefaults() HistogramOpts {
	if o.MinExp == 0 && o.MaxExp == 0 {
		return HistogramOpts{MinExp: -13, MaxExp: 4}
	}
	if o.MaxExp <= o.MinExp {
		o.MaxExp = o.MinExp + 1
	}
	return o
}

// layout is a histogram's bucket layout: nb interior buckets from lo =
// 2^minExp, subBuckets per octave, between one underflow and one
// overflow bucket. Histogram and LocalHistogram share it, and so do all
// registrations under one registry name.
type layout struct {
	lo     float64 // 2^minExp; observations below land in the underflow bucket
	minExp int
	nb     int // interior buckets
}

func newLayout(opts HistogramOpts) layout {
	opts = opts.withDefaults()
	return layout{
		lo:     math.Ldexp(1, opts.MinExp),
		minExp: opts.MinExp,
		nb:     (opts.MaxExp - opts.MinExp) * subBuckets,
	}
}

// Histogram counts observations in fixed log-spaced buckets. Observe is
// lock-free, branch-light, and allocation-free: the bucket index is
// computed from the float's exponent and top mantissa bits — no
// math.Log, no search — followed by one atomic increment. The bucket
// layout is fixed at construction; quantiles are estimated from bucket
// midpoints at snapshot time.
type Histogram struct {
	layout
	counts []atomic.Int64 // [0] underflow, [1..nb] interior, [nb+1] overflow
}

// NewHistogram returns a standalone (unregistered) histogram.
func NewHistogram(opts HistogramOpts) *Histogram {
	l := newLayout(opts)
	return &Histogram{layout: l, counts: make([]atomic.Int64, l.nb+2)}
}

// index maps v to a bucket slot: 0 for underflow (zero, negative, NaN,
// below range), 1..nb interior, nb+1 overflow. The index comes from the
// float's exponent and top mantissa bits — no math.Log, no search.
func (l layout) index(v float64) int {
	if !(v >= l.lo) { // negated so NaN lands in the underflow bucket too
		return 0
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023
	sub := int(bits >> 50 & (subBuckets - 1))
	i := (exp-l.minExp)*subBuckets + sub + 1
	if i > l.nb {
		i = l.nb + 1
	}
	return i
}

// Observe records one sample. Values below the bucket range (including
// zero, negatives, and NaN) count in the underflow bucket; values at or
// above the range count in the overflow bucket.
func (h *Histogram) Observe(v float64) {
	h.counts[h.index(v)].Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// LocalHistogram is the single-writer tier of Histogram: the same bucket
// layout, but plain (non-atomic) counts, so Observe is an array
// increment — the right instrument for a per-packet path owned by one
// goroutine, like a simulated link's queueing delay. Snapshot readers
// synchronize with the writer the same way they do for CounterFunc
// fields (snapshot when the writer is quiescent). Registering several
// local histograms under one registry name sums them at snapshot time,
// which is how concurrent simulation runs sharing a registry aggregate
// without sharing a writer.
type LocalHistogram struct {
	layout
	counts []int64
}

// NewLocalHistogram returns a standalone (unregistered) local histogram.
func NewLocalHistogram(opts HistogramOpts) *LocalHistogram {
	l := newLayout(opts)
	return &LocalHistogram{layout: l, counts: make([]int64, l.nb+2)}
}

// Observe records one sample; same bucketing as Histogram.Observe, but
// single-writer: one plain increment, no atomics.
func (h *LocalHistogram) Observe(v float64) {
	h.counts[h.index(v)]++
}

// Count returns the total number of observations.
func (h *LocalHistogram) Count() int64 {
	var n int64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Stats summarizes the local histogram.
func (h *LocalHistogram) Stats() HistogramStats { return h.stats(h.counts) }

// bucketLo returns the lower bound of interior bucket i (1-based).
func bucketLo(minExp, i int) float64 {
	oct, sub := (i-1)/subBuckets, (i-1)%subBuckets
	return math.Ldexp(1+float64(sub)/subBuckets, minExp+oct)
}

// mid returns the representative midpoint of bucket i, with the
// underflow bucket represented by half the range floor and the overflow
// bucket by the range ceiling.
func (l layout) mid(i int) float64 {
	if i == 0 {
		return l.lo / 2
	}
	if i > l.nb {
		return math.Ldexp(1, l.minExp) * math.Ldexp(1, l.nb/subBuckets)
	}
	return bucketLo(l.minExp, i) * (1 + 0.5/subBuckets)
}

// HistogramStats is a deterministic summary of a histogram: observation
// count, midpoint-estimated mean and quantiles, and the bucket bounds of
// the lowest and highest non-empty buckets.
type HistogramStats struct {
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Stats summarizes the histogram. Concurrent Observes may or may not be
// included; the result is exact once the writers are quiescent.
func (h *Histogram) Stats() HistogramStats {
	counts := make([]int64, len(h.counts))
	addAtomicCounts(counts, h)
	return h.stats(counts)
}

// stats summarizes one bucket-count vector of layout l; it only reads
// counts. The registry also uses it on the sum of every histogram
// registered under one name.
func (l layout) stats(counts []int64) HistogramStats {
	var total int64
	for _, n := range counts {
		total += n
	}
	st := HistogramStats{Count: total}
	if total == 0 {
		return st
	}
	sum := 0.0
	minSet := false
	for i, n := range counts {
		if n == 0 {
			continue
		}
		mid := l.mid(i)
		sum += float64(n) * mid
		if !minSet {
			st.Min = mid
			minSet = true
		}
		st.Max = mid
	}
	st.Mean = sum / float64(total)
	st.P50 = l.quantile(counts, total, 0.50)
	st.P90 = l.quantile(counts, total, 0.90)
	st.P99 = l.quantile(counts, total, 0.99)
	return st
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (l layout) quantile(counts []int64, total int64, q float64) float64 {
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum int64
	for i, n := range counts {
		cum += n
		if cum > rank {
			return l.mid(i)
		}
	}
	return l.mid(len(counts) - 1)
}
