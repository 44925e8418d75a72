// Package video models the receiver side of a layered stream: per-layer
// byte timelines with holes (losses), the playout clock, and the
// hierarchical decoding constraint — an enhancement layer is only
// decodable at an instant if every lower layer has its data for that
// instant (§1.3 of the paper). It turns raw per-layer deliveries into
// the quality metrics a viewer experiences: decodable layer-seconds,
// per-layer gap time, and base-layer stalls.
package video

import (
	"slices"
	"sort"
)

// Interval is a half-open byte range [Start, End).
type Interval struct {
	Start, End int64
}

// IntervalSet is a sorted set of disjoint, non-adjacent intervals.
// The zero value is an empty set.
type IntervalSet struct {
	ivs []Interval
}

// Add inserts [start, end), merging with any overlapping or adjacent
// intervals, and returns how many of its bytes were not covered before.
// It works in place: only an insertion past the capacity allocates.
func (s *IntervalSet) Add(start, end int64) (added int64) {
	if end <= start {
		return 0
	}
	// Find insertion window: all intervals with End >= start can merge.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End >= start })
	added = end - start
	j := i
	for ; j < len(s.ivs) && s.ivs[j].Start <= end; j++ {
		if lo, hi := max(s.ivs[j].Start, start), min(s.ivs[j].End, end); hi > lo {
			added -= hi - lo
		}
	}
	if i == j {
		s.ivs = slices.Insert(s.ivs, i, Interval{Start: start, End: end})
	} else {
		s.ivs[i] = Interval{Start: min(start, s.ivs[i].Start), End: max(end, s.ivs[j-1].End)}
		s.ivs = slices.Delete(s.ivs, i+1, j)
	}
	return added
}

// Contains reports whether the whole range [start, end) is covered.
func (s *IntervalSet) Contains(start, end int64) bool {
	if end <= start {
		return true
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > start })
	return i < len(s.ivs) && s.ivs[i].Start <= start && s.ivs[i].End >= end
}

// CoveredWithin returns how many bytes of [start, end) are covered.
func (s *IntervalSet) CoveredWithin(start, end int64) int64 {
	if end <= start {
		return 0
	}
	var covered int64
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > start })
	for ; i < len(s.ivs) && s.ivs[i].Start < end; i++ {
		lo, hi := s.ivs[i].Start, s.ivs[i].End
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			covered += hi - lo
		}
	}
	return covered
}

// FirstGap returns the start of the first missing byte at or after
// from, and the end of that gap (which may be maxExclusive if the gap is
// open-ended).
func (s *IntervalSet) FirstGap(from, maxExclusive int64) (start, end int64, ok bool) {
	if from >= maxExclusive {
		return 0, 0, false
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > from })
	if i == len(s.ivs) || s.ivs[i].Start > from {
		// from itself is uncovered.
		gapEnd := maxExclusive
		if i < len(s.ivs) && s.ivs[i].Start < maxExclusive {
			gapEnd = s.ivs[i].Start
		}
		return from, gapEnd, true
	}
	// from is covered; the gap starts at this interval's end.
	gapStart := s.ivs[i].End
	if gapStart >= maxExclusive {
		return 0, 0, false
	}
	gapEnd := maxExclusive
	if i+1 < len(s.ivs) && s.ivs[i+1].Start < maxExclusive {
		gapEnd = s.ivs[i+1].Start
	}
	return gapStart, gapEnd, true
}

// Max returns the highest covered offset (0 for an empty set).
func (s *IntervalSet) Max() int64 {
	if len(s.ivs) == 0 {
		return 0
	}
	return s.ivs[len(s.ivs)-1].End
}

// Len returns the number of disjoint intervals (0: nothing arrived).
func (s *IntervalSet) Len() int { return len(s.ivs) }

// TotalCovered returns the total number of covered bytes.
func (s *IntervalSet) TotalCovered() int64 {
	var t int64
	for _, iv := range s.ivs {
		t += iv.End - iv.Start
	}
	return t
}
