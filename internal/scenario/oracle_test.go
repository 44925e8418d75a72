package scenario

import (
	"math"
	"reflect"
	"testing"

	"qav/internal/core"
)

// ComputeDropStats is the post-hoc pass over a complete controller event
// log that Tables 1 and 2 were once computed with. The controller now
// keeps running sums (core.Controller.Stats); this pass stays as their
// oracle. Drop events with zero total buffering count as perfectly
// efficient: nothing was wasted.
func ComputeDropStats(events []core.Event) core.DropStats {
	var st core.DropStats
	sumE := 0.0
	poor := 0
	for _, e := range events {
		switch e.Kind {
		case core.EvDropLayer:
			st.Drops++
			if e.BufTotal > 0 {
				sumE += (e.BufTotal - e.BufDrop) / e.BufTotal
			} else {
				sumE += 1
			}
			if e.PoorDist {
				poor++
			}
		case core.EvAddLayer:
			st.Adds++
		case core.EvBackoff:
			st.Backoffs++
		case core.EvStallStart:
			st.Stalls++
		}
	}
	if st.Drops > 0 {
		st.AvgEfficiency = sumE / float64(st.Drops)
		st.PoorDistPct = 100 * float64(poor) / float64(st.Drops)
	} else {
		st.AvgEfficiency = 1
	}
	return st
}

func TestComputeDropStats(t *testing.T) {
	events := []core.Event{
		{Kind: core.EvPlayStart},
		{Kind: core.EvAddLayer},
		{Kind: core.EvAddLayer},
		{Kind: core.EvBackoff},
		{Kind: core.EvDropLayer, BufTotal: 1000, BufDrop: 10},
		{Kind: core.EvDropLayer, BufTotal: 1000, BufDrop: 100, PoorDist: true},
		{Kind: core.EvStallStart},
	}
	st := ComputeDropStats(events)
	if st.Drops != 2 || st.Adds != 2 || st.Backoffs != 1 || st.Stalls != 1 {
		t.Fatalf("counts wrong: %+v", st)
	}
	wantE := ((1000.0-10)/1000 + (1000.0-100)/1000) / 2
	if math.Abs(st.AvgEfficiency-wantE) > 1e-12 {
		t.Fatalf("efficiency %v, want %v", st.AvgEfficiency, wantE)
	}
	if st.PoorDistPct != 50 {
		t.Fatalf("poor%% = %v, want 50", st.PoorDistPct)
	}
}

func TestComputeDropStatsNoDrops(t *testing.T) {
	st := ComputeDropStats([]core.Event{{Kind: core.EvAddLayer}})
	if st.AvgEfficiency != 1 || st.PoorDistPct != 0 {
		t.Fatalf("no-drop defaults wrong: %+v", st)
	}
}

func TestComputeDropStatsZeroTotal(t *testing.T) {
	st := ComputeDropStats([]core.Event{
		{Kind: core.EvDropLayer, BufTotal: 0, BufDrop: 0},
	})
	if st.AvgEfficiency != 1 {
		t.Fatalf("zero-buffer drop should count as fully efficient, got %v", st.AvgEfficiency)
	}
}

// The controller's running sums are the post-hoc pass, bit for bit: on
// SingleQA, T1 and T2 at test scale and on every QA flow of a fleet,
// Ctrl.Stats() equals ComputeDropStats over the flow's whole event log,
// and Result.Stats is that flow's Stats.
func TestStatsMatchOracle(t *testing.T) {
	fleet := MustPreset("Fleet", WithFlows(40))
	fleet.Duration = 60
	cfgs := []Config{
		MustPreset("SingleQA", WithKmax(2)),
		MustPreset("T1", WithKmax(2)),
		MustPreset("T2", WithKmax(4)),
		fleet,
	}
	results, err := RunAll(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	drops, poor := 0, 0.0
	for i, res := range results {
		if want := ComputeDropStats(res.Events); !reflect.DeepEqual(res.Stats, want) {
			t.Errorf("%s: Result.Stats %+v, oracle %+v", cfgs[i].Name, res.Stats, want)
		}
		for j, q := range res.QASrcs {
			got, want := q.Ctrl.Stats(), ComputeDropStats(q.Ctrl.Events)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s QA flow %d: Stats %+v, oracle %+v", cfgs[i].Name, j, got, want)
			}
			drops += got.Drops
			poor += got.PoorDistPct
		}
	}
	if drops == 0 || poor == 0 {
		t.Fatalf("%d drops, poor-distribution share summed %v%%: the comparison is vacuous", drops, poor)
	}
}
