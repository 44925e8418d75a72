package main

import (
	"math"
	"sort"
	"time"
)

// maxLayers is MaxLayers of every server the benchmark starts.
const maxLayers = 8

const (
	joinLimit   = 2 * time.Second // first data later than this after the join was due: failed
	minJudgeNs  = int64(time.Second)
	starvedFrac = 0.50 // of cap x stream time; steady delivery is 0.96-0.98, and a host stall that costs a 4 s stream two backoffs still leaves it above this
)

// sessionLog is what judge decides on: one session's receive log, in ns
// since the generator's t0.
type sessionLog struct {
	DueNs       int64 // when the join was scheduled (open loop: latency counts from here)
	FirstDataNs int64 // 0 = none yet
	LastDataNs  int64
	Bytes       int64
}

// verdict is what judge makes of one session.
type verdict struct {
	Attempted bool // the session counts as an operation of the run
	Failed    bool
	Why       string  // set when Failed
	Delivered float64 // bytes received over cap x stream time seen; 0 if too young to tell
}

// judge decides whether a session counts as an operation of the run
// that ended at endNs, and whether it failed: no data within joinLimit
// of when its join was due, or less than starvedFrac of cap x the part
// of its stream the run saw. A session without data yet counts only
// once joinLimit has passed.
func (s sessionLog) judge(endNs int64, stream time.Duration, capBps float64) verdict {
	switch {
	case s.DueNs > endNs:
		return verdict{}
	case s.FirstDataNs == 0 && endNs-s.DueNs <= int64(joinLimit):
		return verdict{}
	case s.FirstDataNs == 0:
		return verdict{Attempted: true, Failed: true, Why: "no data within 2 s of joining"}
	case s.FirstDataNs-s.DueNs > int64(joinLimit):
		return verdict{Attempted: true, Failed: true, Why: "first data more than 2 s after joining"}
	}
	seen := endNs
	if e := s.FirstDataNs + int64(stream); e < seen {
		seen = e
	}
	seen -= s.FirstDataNs
	if seen < minJudgeNs {
		return verdict{Attempted: true}
	}
	v := verdict{Attempted: true, Delivered: float64(s.Bytes) / (capBps * float64(seen) / 1e9)}
	if v.Delivered < starvedFrac {
		v.Failed, v.Why = true, "starved: under half of cap x stream time"
	}
	return v
}

// median of xs (mean of the middle two for an even count); NaN if empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; NaN if empty. It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
