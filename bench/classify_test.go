package main

import (
	"math"
	"testing"
	"time"
)

func TestJudge(t *testing.T) {
	const (
		sec    = int64(time.Second)
		capBps = 16_000.0
		stream = 60 * time.Second
	)
	cases := []struct {
		name              string
		log               sessionLog
		endNs             int64
		stream            time.Duration
		attempted, failed bool
	}{
		{"not yet due", sessionLog{DueNs: 11 * sec}, 10 * sec, stream, false, false},
		{"young, no data yet", sessionLog{DueNs: 9 * sec}, 10 * sec, stream, false, false},
		{"never answered", sessionLog{DueNs: 1 * sec}, 10 * sec, stream, true, true},
		{"answered late", sessionLog{DueNs: 1 * sec, FirstDataNs: 4 * sec, Bytes: 96_000}, 10 * sec, stream, true, true},
		{"steady at 97% of cap", sessionLog{DueNs: 1 * sec, FirstDataNs: 1*sec + 2e6, Bytes: int64(0.97 * capBps * 9)}, 10 * sec, stream, true, false},
		{"halved once, 70% of cap", sessionLog{DueNs: 1 * sec, FirstDataNs: 1*sec + 2e6, Bytes: int64(0.70 * capBps * 9)}, 10 * sec, stream, true, false},
		{"starved at 40% of cap", sessionLog{DueNs: 1 * sec, FirstDataNs: 1*sec + 2e6, Bytes: int64(0.40 * capBps * 9)}, 10 * sec, stream, true, true},
		{"too young to call starved", sessionLog{DueNs: 9*sec + 5e8, FirstDataNs: 9*sec + 6e8, Bytes: 512}, 10 * sec, stream, true, false},
		{"short stream judged on its own length", sessionLog{DueNs: 1 * sec, FirstDataNs: 1 * sec, Bytes: int64(0.9 * capBps * 4)}, 20 * sec, 4 * time.Second, true, false},
		{"short stream starved", sessionLog{DueNs: 1 * sec, FirstDataNs: 1 * sec, Bytes: int64(0.4 * capBps * 4)}, 20 * sec, 4 * time.Second, true, true},
	}
	for _, c := range cases {
		v := c.log.judge(c.endNs, c.stream, capBps)
		if v.Attempted != c.attempted || v.Failed != c.failed {
			t.Errorf("%s: %+v, want attempted=%v failed=%v", c.name, v, c.attempted, c.failed)
		}
		if v.Failed && v.Why == "" {
			t.Errorf("%s: failed without a reason", c.name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
}
