// Package trace collects time series and computes the paper's evaluation
// metrics: buffering efficiency (Table 1) and the fraction of layer drops
// caused by poor inter-layer buffer distribution (Table 2).
//
// A series holds its own time column unless it is bound to a Clock
// (Set.OnClock): series sampled at the same instants then share the
// clock's one column and store only their values, and each one's T is
// a view of the column's first Len() entries.
package trace

import (
	"io"
	"math"
	"sort"
	"strconv"
)

// Series is a named time series (seconds, value).
type Series struct {
	Name string
	T    []float64
	V    []float64

	clock *Clock // nil: T is the series' own
}

// Clock is one time column, shared by every series bound to it. A
// sampler adds each sample time to the clock once, then one value to
// each of its series.
type Clock struct{ t []float64 }

// NewClock returns an empty clock reserved for n ticks.
func NewClock(n int) *Clock { return &Clock{t: make([]float64, 0, n)} }

// Add appends sample time t to the column.
func (c *Clock) Add(t float64) { c.t = append(c.t, t) }

// Add appends a sample. On a series bound to a clock, t must be the
// clock's time for this sample: only v is stored, and T grows to view
// one more of the clock's times.
func (s *Series) Add(t, v float64) {
	s.V = append(s.V, v)
	if s.clock == nil {
		s.T = append(s.T, t)
		return
	}
	n := len(s.V)
	// The full slice expression keeps an append to T off the column.
	s.T = s.clock.t[:n:n]
	if s.T[n-1] != t {
		panic("trace: " + s.Name + " sampled off its clock")
	}
}

// Reserve grows the series' capacity to hold at least n samples, so a
// caller that knows its sample count up front pays one allocation per
// vector instead of the append regrowth ladder. Existing samples are
// kept; a series already at capacity n is untouched. A bound series
// reserves its values only; its times are the clock's.
func (s *Series) Reserve(n int) {
	if s.clock == nil && cap(s.T) < n {
		t := make([]float64, len(s.T), n)
		copy(t, s.T)
		s.T = t
	}
	if cap(s.V) < n {
		v := make([]float64, len(s.V), n)
		copy(v, s.V)
		s.V = v
	}
}

// Alias returns a series named name that shares s's samples as they
// are now. An Add to either one leaves the other as it was.
func (s *Series) Alias(name string) *Series {
	n := len(s.V)
	return &Series{Name: name, T: s.T[:n:n], V: s.V[:n:n]}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Last returns the most recent value, or 0 if empty.
func (s *Series) Last() float64 {
	if len(s.V) == 0 {
		return 0
	}
	return s.V[len(s.V)-1]
}

// Max returns the maximum value. ok is false when the series is empty —
// the zero maximum is then a default, not an observed value.
func (s *Series) Max() (v float64, ok bool) {
	_, hi, n := s.MinMax()
	return hi, n > 0
}

// Min returns the minimum value; ok is false when the series is empty.
func (s *Series) Min() (v float64, ok bool) {
	lo, _, n := s.MinMax()
	return lo, n > 0
}

// MinMax returns the minimum and maximum value and the sample count in
// one pass. lo and hi are 0 when n is 0.
func (s *Series) MinMax() (lo, hi float64, n int) {
	n = len(s.V)
	if n == 0 {
		return 0, 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range s.V {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, n
}

// Avg returns the arithmetic mean, or 0 if empty.
func (s *Series) Avg() float64 {
	if len(s.V) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.V {
		sum += v
	}
	return sum / float64(len(s.V))
}

// AvgBetween averages samples with t in [from, to).
func (s *Series) AvgBetween(from, to float64) float64 {
	sum, n := 0.0, 0
	for i, t := range s.T {
		if t >= from && t < to {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Set is an ordered collection of named series.
type Set struct {
	order  []*Series
	byName map[string]*Series
}

// NewSet returns an empty series set.
func NewSet() *Set { return &Set{byName: make(map[string]*Series)} }

// Series returns the series with the given name, creating it on first use.
func (set *Set) Series(name string) *Series {
	if s, ok := set.byName[name]; ok {
		return s
	}
	s := &Series{Name: name}
	set.byName[name] = s
	set.order = append(set.order, s)
	return s
}

// OnClock returns a new series named name bound to c, with room for
// as many values as c has reserved ticks. set must hold no series of
// that name.
func (set *Set) OnClock(name string, c *Clock) *Series {
	s := &Series{Name: name, V: make([]float64, 0, cap(c.t)), clock: c}
	set.Add(s)
	return s
}

// Add puts s, which may belong to another set too, last in set's
// creation order under its name. set must hold no series of that name.
func (set *Set) Add(s *Series) {
	set.byName[s.Name] = s
	set.order = append(set.order, s)
}

// Names returns all series names in creation order.
func (set *Set) Names() []string {
	out := make([]string, len(set.order))
	for i, s := range set.order {
		out[i] = s.Name
	}
	return out
}

// Get returns the series with the given name, or nil.
func (set *Set) Get(name string) *Series { return set.byName[name] }

// tsvKey identifies series sampled on the same clock: equal length plus
// equal first and last timestamps. Length alone is not enough — two
// series can coincidentally share a sample count while being sampled at
// different times, and zipping those against one time column silently
// misaligns the table.
type tsvKey struct {
	n           int
	first, last float64
}

func seriesKey(s *Series) tsvKey {
	k := tsvKey{n: s.Len()}
	if k.n > 0 {
		k.first, k.last = s.T[0], s.T[k.n-1]
	}
	return k
}

// WriteTSV writes series sharing a sampling clock (same sample count and
// same first/last timestamps) as one aligned tab-separated table (time
// plus one column per series). Series on differing clocks are written as
// separate blocks, ordered by length then start time.
func (set *Set) WriteTSV(w io.Writer) error {
	if len(set.order) == 0 {
		return nil
	}
	groups := map[tsvKey][]*Series{}
	var keys []tsvKey
	for _, s := range set.order {
		k := seriesKey(s)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], s)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.n != b.n {
			return a.n < b.n
		}
		if a.first != b.first {
			return a.first < b.first
		}
		return a.last < b.last
	})
	var line []byte
	for _, k := range keys {
		g := groups[k]
		line = append(line[:0], "# time"...)
		for _, s := range g {
			line = append(append(line, '\t'), s.Name...)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
		for i := 0; i < k.n; i++ {
			line = strconv.AppendFloat(line[:0], g[0].T[i], 'f', 3, 64)
			for _, s := range g {
				line = strconv.AppendFloat(append(line, '\t'), s.V[i], 'f', 3, 64)
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return err
			}
		}
	}
	return nil
}
