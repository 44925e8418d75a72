package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"qav/internal/core"
	"qav/internal/flow"
	"qav/internal/transport"
)

// In the simulator a QA flow's transport never sees a controller
// decision: every packet has the same size and no slot goes to a
// repair. The driver's record of one run's controller calls therefore
// drives any controller variant exactly as a full run of that variant
// would. These tests hold replay to that, bit for bit, and use it to
// judge Table 2's drops with the future known.

// outcome is what a run reports of one controller.
type outcome struct {
	Events                      []core.Event
	Stats                       core.DropStats
	Stall, Played, LayerSeconds float64
	Buffers                     []float64
}

func outcomeOf(c *core.Controller) outcome {
	return outcome{c.Events, c.Stats(), c.StallSec(), c.PlayedSec, c.LayerSeconds, c.Buffers()}
}

// replayed drives a fresh controller with params p through rec.
func replayed(t *testing.T, p core.Params, rec []flow.Input, pktSize int) *core.Controller {
	t.Helper()
	c, err := core.NewController(p)
	if err != nil {
		t.Fatal(err)
	}
	c.KeepEvents()
	flow.Replay(c, rec, pktSize)
	return c
}

// checkReplay replays rec with the run's own params and compares the
// result with the run's controller. It returns the run's drops.
func checkReplay(t *testing.T, name string, run *Result, qa int, rec []flow.Input) (drops int) {
	t.Helper()
	full := run.QASrcs[qa].Ctrl
	got, want := outcomeOf(replayed(t, run.Cfg.QA, rec, run.Cfg.PacketSize)), outcomeOf(full)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: replay differs from the run:\nreplay %d events %+v stall %v played %v layer-s %v bufs %v\nrun    %d events %+v stall %v played %v layer-s %v bufs %v",
			name, len(got.Events), got.Stats, got.Stall, got.Played, got.LayerSeconds, got.Buffers,
			len(want.Events), want.Stats, want.Stall, want.Played, want.LayerSeconds, want.Buffers)
	}
	return want.Stats.Drops
}

func nonVacuous(t *testing.T, name string, drops int) {
	t.Helper()
	if drops == 0 {
		t.Errorf("%s: no drop to replay: the comparison is vacuous", name)
	}
}

var paperKmax = []int{2, 3, 4, 5, 8}

// One record per test at Kmax 2 replays every Table 2 cell, and the
// allocation strawmen, bit for bit.
func TestReplayMatchesRun(t *testing.T) {
	for _, test := range []string{"T1", "T2"} {
		t.Run(test, func(t *testing.T) {
			t.Parallel()
			_, rec := recordRun(t, MustPreset(test, WithKmax(2), WithScale(8)))
			var cfgs []Config
			for _, kmax := range paperKmax {
				cfgs = append(cfgs, MustPreset(test, WithKmax(kmax), WithScale(8)))
			}
			if test == "T2" {
				for _, alloc := range []core.Allocation{core.AllocEqual, core.AllocBase} {
					cfg := MustPreset(test, WithKmax(3), WithScale(8))
					cfg.QA.Alloc = alloc
					cfgs = append(cfgs, cfg)
				}
			}
			for _, cfg := range cfgs {
				run := runChecked(t, cfg)
				name := fmt.Sprintf("%s Kmax %d %v", test, cfg.QA.Kmax, cfg.QA.Alloc)
				nonVacuous(t, name, checkReplay(t, name, run, 0, rec[0]))
			}
		})
	}
}

func TestReplayMatchesRunOtherTransports(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindDelay, transport.KindGreedy} {
		_, rec := recordRun(t, MustPreset("T1", WithKmax(2), WithTransport(kind)))
		for _, kmax := range []int{2, 8} {
			run := runChecked(t, MustPreset("T1", WithKmax(kmax), WithTransport(kind)))
			name := fmt.Sprintf("T1 %s Kmax %d", kind, kmax)
			nonVacuous(t, name, checkReplay(t, name, run, 0, rec[0]))
		}
	}
}

// Every QA flow of a fleet replays.
func TestReplayMatchesRunFleet(t *testing.T) {
	cfg := MustPreset("Fleet", WithFlows(40))
	_, rec := recordRun(t, cfg)
	cfg.QA.Kmax = 4
	run := runChecked(t, cfg)
	drops := 0
	for i := range run.QASrcs {
		drops += checkReplay(t, fmt.Sprintf("Fleet QA flow %d", i), run, i, rec[i])
	}
	nonVacuous(t, "Fleet", drops)
}

// A drop's class by what the future held, from the drop until the rate
// came back to the layers dropped from.
const (
	beyondDesign = iota // (a) Σbuf < Σbands: no distribution could have saved the layer
	poorDist            // (b) enough in total, but some k smallest buffers hold less than the k smallest bands
	needless            // (c) every layer would have survived: the slope or persistence estimate dropped it
	unrecovered         // (d) the run ended before the rate recovered
)

// judged is one drop, its class and the dip that followed it: the
// lowest rate as a share of na·C, the time until R ≥ na·C, the backoffs
// inside the dip, the first k whose k smallest buffers hold less than
// the k smallest bands (0 if none), and Σbuf/Σbands.
type judged struct {
	class           int
	critical        bool
	low, dur, ratio float64
	backoffs, k     int
}

// classify judges one drop of layer na-1 at rec[0]'s call, with bufs the
// buffers of layers 0..na-1 just before that call. R(t) is the rate of
// the latest rate-bearing input, held until the next; the deficit is
// d(t) = na·C − R(t) until R ≥ na·C, and band i = ∫ clamp(d − i·C, 0, C) dt
// is what layer i would have to drain, since no layer drains faster
// than C. The layers all survive iff, for every k, the k smallest
// buffers hold at least the k smallest bands.
func classify(rec []flow.Input, bufs []float64, C float64) judged {
	na := len(bufs)
	top := float64(na) * C
	bands := make([]float64, na)
	t, R := rec[0].Now, rec[0].R
	low, backoffs := R, 0
	recovered := false
	for _, in := range rec[1:] {
		if in.Kind == flow.InAck {
			continue
		}
		d, dt := top-R, in.Now-t
		for i := range bands {
			bands[i] += dt * min(max(d-float64(i)*C, 0), C)
		}
		t, R = in.Now, in.R
		low = min(low, R)
		if in.Kind == flow.InBackoff {
			backoffs++
		}
		if R >= top {
			recovered = true
			break
		}
	}
	j := judged{class: unrecovered, low: low / top, dur: t - rec[0].Now, backoffs: backoffs}
	if !recovered {
		return j
	}
	sorted := append([]float64(nil), bufs...)
	sort.Float64s(sorted)
	sort.Float64s(bands)
	var haveK, needK float64
	for k := range sorted {
		haveK += sorted[k]
		needK += bands[k]
		if haveK < needK && j.k == 0 {
			j.k = k + 1
		}
	}
	j.ratio = haveK / needK
	switch {
	case haveK < needK:
		j.class = beyondDesign
	case j.k > 0:
		j.class = poorDist
	default:
		j.class = needless
	}
	return j
}

// triageCell replays rec with p and judges every drop.
func triageCell(t *testing.T, p core.Params, rec []flow.Input, pktSize int) ([]judged, core.DropStats) {
	t.Helper()
	c, err := core.NewController(p)
	if err != nil {
		t.Fatal(err)
	}
	c.KeepEvents()
	r := flow.NewReplayer(c, pktSize)
	var drops []judged
	for i, in := range rec {
		var before []float64
		if in.Kind != flow.InAck { // an ACK never drops a layer
			before = c.Buffers()
		}
		n := len(c.Events)
		r.Feed(in)
		for _, e := range c.Events[n:] {
			if e.Kind == core.EvDropLayer {
				j := classify(rec[i:], before[:e.Layer+1], c.P.C)
				j.critical = e.Critical
				drops = append(drops, j)
			}
		}
	}
	return drops, c.Stats()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	return v[len(v)/2]
}

// spread is v's median and range.
func spread(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3g [%.3g, %.3g]", median(v), slices.Min(v), slices.Max(v))
}

// TestTable2Triage prints Table 2's drops by hindsight class, for all
// ten cells at the paper's scale, and each class's dips:
//
//	go test -run TestTable2Triage -v ./internal/scenario
func TestTable2Triage(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %4s %5s %6s %8s %4s %4s %4s %4s\n", "test", "Kmax", "drops", "poor%", "critical", "(a)", "(b)", "(c)", "(d)")
	var all []judged
	for _, test := range []string{"T1", "T2"} {
		cfg := MustPreset(test, WithKmax(2), WithScale(8))
		_, rec := recordRun(t, cfg)
		for _, kmax := range paperKmax {
			p := cfg.QA
			p.Kmax = kmax
			drops, st := triageCell(t, p, rec[0], cfg.PacketSize)
			var n [4]int
			critical := 0
			for _, j := range drops {
				n[j.class]++
				if j.critical {
					critical++
				}
			}
			if n[0]+n[1]+n[2]+n[3] != st.Drops || st.Drops == 0 {
				t.Errorf("%s Kmax %d: classes %v sum to %d, want the %d drops", test, kmax, n, len(drops), st.Drops)
			}
			fmt.Fprintf(&b, "%-4s %4d %5d %6.1f %8d %4d %4d %4d %4d\n", test, kmax, st.Drops, st.PoorDistPct, critical, n[0], n[1], n[2], n[3])
			all = append(all, drops...)
		}
	}
	b.WriteString("all cells: class, drops, critical, median lowest R/(na·C), median and max recovery s\n")
	for class, name := range []string{"(a)", "(b)", "(c)", "(d)"} {
		var low, dur []float64
		critical, longest := 0, 0.0
		for _, j := range all {
			if j.class == class {
				low, dur = append(low, j.low), append(dur, j.dur)
				longest = max(longest, j.dur)
				if j.critical {
					critical++
				}
			}
		}
		fmt.Fprintf(&b, "%s %4d %4d %5.2f %5.2f %5.2f\n", name, len(low), critical, median(low), median(dur), longest)
	}
	var k, ratio, backoffs []float64
	for _, j := range all {
		if j.class == poorDist {
			k, ratio, backoffs = append(k, float64(j.k)), append(ratio, j.ratio), append(backoffs, float64(j.backoffs))
		}
	}
	fmt.Fprintf(&b, "(b), median [range]: first failing k %s, Σbuf/Σbands %s, backoffs inside the dip %s\n", spread(k), spread(ratio), spread(backoffs))
	t.Logf("Table 2 by hindsight: (a) beyond the design point, (b) poor distribution, (c) not needed, (d) run ended first\n%s", b.String())
}
