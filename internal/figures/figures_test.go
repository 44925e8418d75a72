package figures

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qav/internal/core"
	"qav/internal/scenario"
)

func TestFigure1ShapeMatchesPaper(t *testing.T) {
	res, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// Sawtooth: many backoffs, average near the link bandwidth.
	if res.Get("backoffs") < 10 {
		t.Fatalf("only %v backoffs; no sawtooth", res.Get("backoffs"))
	}
	avg, bw := res.Get("avg_rate"), res.Get("link_bw")
	if avg < 0.5*bw || avg > 1.5*bw {
		t.Fatalf("avg rate %v not around link bandwidth %v", avg, bw)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "rap.rate") {
		t.Fatalf("render missing expected content:\n%.300s", out)
	}
}

func TestFigure2ShapeMatchesPaper(t *testing.T) {
	res, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if res.Get("max_layers") < 2 {
		t.Fatalf("max layers %v; expected multiple layers on a private link", res.Get("max_layers"))
	}
	if res.Get("backoffs") < 5 {
		t.Fatalf("backoffs %v; expected sawtooth cycles", res.Get("backoffs"))
	}
	if res.Get("stall_sec") > 1 {
		t.Fatalf("stalled %vs; buffering must prevent dropouts", res.Get("stall_sec"))
	}
	if res.Get("buf_l0_max") <= 0 {
		t.Fatal("base layer never buffered")
	}
}

func TestRenderTablesFormatting(t *testing.T) {
	cells := []TableCell{
		{Test: "T1", Kmax: 2, DropStats: core.DropStats{Drops: 10, AvgEfficiency: 0.9977, PoorDistPct: 0}},
		{Test: "T1", Kmax: 8, DropStats: core.DropStats{Drops: 4, AvgEfficiency: 0.9999, PoorDistPct: 0}},
		{Test: "T2", Kmax: 2, DropStats: core.DropStats{Drops: 20, AvgEfficiency: 0.9915, PoorDistPct: 2.4}},
		{Test: "T2", Kmax: 8, DropStats: core.DropStats{}},
	}
	var buf bytes.Buffer
	if err := RenderTables(&buf, cells); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "99.77%", "2.4%", "no-drops", "Kmax=2", "Kmax=8"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestResultGetMissingKey(t *testing.T) {
	r := &Result{}
	if r.Get("nope") != 0 {
		t.Fatal("missing key should return 0")
	}
}

// The parallel sweep must produce exactly the cells the sequential sweep
// does — same order, same DropStats. Paper-scale, so skipped in -short.
func TestTablesSweepParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	kmaxes := []int{2}
	seq, _, err := TablesSweep(kmaxes, DefaultScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := TablesSweep(kmaxes, DefaultScale, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("cell %d differs:\nseq: %+v\npar: %+v", i, seq[i], par[i])
		}
	}
}

// A Table 1/2 sweep samples no series and keeps no decision log, since
// its reports read neither (its runs are untraced), and its snapshots
// merge histograms through one reused vector: the paper-scale sweep
// allocates about 0.54 MB. With a log per controller and a merge
// vector per histogram it took 1.04 MB; sampling its ten configs'
// series as well, 3.5 MB.
func TestTablesSweepFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, _, err := TablesSweep(nil, DefaultScale, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	got := m1.TotalAlloc - m0.TotalAlloc
	if got > 800_000 {
		t.Fatalf("one sweep allocated %d bytes, want at most 800,000", got)
	}
	t.Logf("one sweep allocated %d bytes", got)
}

// The expensive paper-scale figures run only outside -short.
func TestFigure11And13ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	f11, err := Figure11(2, DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if f11.Get("buf_l0_avg") <= f11.Get("buf_l3_avg") {
		t.Fatalf("Fig 11: base layer (%v) must buffer more than layer 3 (%v)",
			f11.Get("buf_l0_avg"), f11.Get("buf_l3_avg"))
	}
	if f11.Get("stall_sec") > 1 {
		t.Fatalf("Fig 11: stalled %vs", f11.Get("stall_sec"))
	}

	f13, err := Figure13(DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	before, during, after := f13.Get("layers_before"), f13.Get("layers_during"), f13.Get("layers_after")
	if !(during < before && after > during) {
		t.Fatalf("Fig 13 shape wrong: before=%v during=%v after=%v", before, during, after)
	}
	if f13.Get("stall_sec") > 2 {
		t.Fatalf("Fig 13: base layer starved %vs", f13.Get("stall_sec"))
	}
}

func TestDeciles(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{nil, [3]float64{}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{10, 0, 5}, [3]float64{1, 5, 9}},
		{[]float64{4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 10}, [3]float64{1, 5, 9}},
	} {
		if got := deciles(c.v); got != c.want {
			t.Errorf("deciles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// Seeded cells come out in TablesSweep's order, every seed counted, with
// p10 <= median <= p90, and render one line per test.
func TestTablesSeeds(t *testing.T) {
	cells, err := TablesSeeds([]int{2, 8}, 3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"T1/2", "T1/8", "T2/2", "T2/8"}
	if len(cells) != len(order) {
		t.Fatalf("%d cells, want %d", len(cells), len(order))
	}
	for i, c := range cells {
		if got := fmt.Sprintf("%s/%d", c.Test, c.Kmax); got != order[i] || c.Seeds != 3 || c.Dropped > 3 {
			t.Errorf("cell %d: %+v, want %s over 3 seeds", i, c, order[i])
		}
		for _, d := range [][3]float64{c.Eff, c.PoorDist} {
			if !(d[0] <= d[1] && d[1] <= d[2]) {
				t.Errorf("%s: deciles %v out of order", order[i], d)
			}
		}
	}
	var buf bytes.Buffer
	if err := RenderSpreads(&buf, cells); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"over 3 start seeds", "Kmax=2", "Kmax=8", "\nT1    ", "\nT2    ", " ["} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// Fig 11 is the first 40 s of the T1 run at Kmax 2: every series of
// its run is an exact prefix of the full T1 run's, unjittered and at a
// start seed, so a seeded Fig 11 could follow the tables' T1 lead
// rather than simulate. Only stall_sec, the whole run's total, is not a
// prefix fact.
func TestFigure11IsT1Prefix(t *testing.T) {
	for _, seed := range []int64{0, 3} {
		c := mustFigure(11, 2).cells[0]
		c.seed = seed
		short := mustConfig(c.config(DefaultScale, nil))
		c.dur = 0
		full := mustConfig(c.config(DefaultScale, nil))
		if full.Duration <= short.Duration {
			t.Fatalf("T1 runs %v s, Fig 11 %v s", full.Duration, short.Duration)
		}
		results, err := scenario.RunAll([]scenario.Config{short, full}, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, f := results[0].Series, results[1].Series
		if a, b := fmt.Sprint(s.Names()), fmt.Sprint(f.Names()); a != b {
			t.Fatalf("seed %d: Fig 11 series %s, T1 series %s", seed, a, b)
		}
		for _, name := range s.Names() {
			a, b := s.Get(name), f.Get(name)
			if a.Len() < 2 || a.Len() >= b.Len() {
				t.Fatalf("seed %d %s: %d samples against T1's %d", seed, name, a.Len(), b.Len())
			}
			for i := range a.V {
				if math.Float64bits(a.T[i]) != math.Float64bits(b.T[i]) || math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
					t.Fatalf("seed %d %s sample %d: (%v, %v), T1 (%v, %v)", seed, name, i, a.T[i], a.V[i], b.T[i], b.V[i])
				}
			}
		}
	}
}

// Seeded figure facts come in the figure's order, each the median and
// deciles of full runs of its config at each seed, though Figs 12 and 13
// read followers of the tables' sweep.
func TestFigureSeeds(t *testing.T) {
	for _, fig := range []int{11, 12, 13} {
		var want Result
		out := mustFigure(fig, 2)
		for k, c := range out.cells {
			c.seed = 1
			res, err := scenario.Run(mustConfig(c.config(1, nil)))
			if err != nil {
				t.Fatal(err)
			}
			out.facts(&want, k, res)
		}
		one, err := FigureSeeds(fig, 2, 1, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(one.Facts) != len(want.Summary) {
			t.Fatalf("Fig %d: %d facts, want %d", fig, len(one.Facts), len(want.Summary))
		}
		for k, f := range want.Summary {
			if got := one.Facts[k]; got.Key != f.Key || got.Deciles != [3]float64{f.Value, f.Value, f.Value} {
				t.Errorf("Fig %d seed 1: %s %v, a run gives %v", fig, got.Key, got.Deciles, f.Value)
			}
		}
		three, err := FigureSeeds(fig, 2, 3, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range three.Facts {
			if d := f.Deciles; !(d[0] <= d[1] && d[1] <= d[2]) {
				t.Errorf("Fig %d %s: deciles %v out of order", fig, f.Key, d)
			}
		}
		var buf bytes.Buffer
		if err := three.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if out := buf.String(); !strings.Contains(out, "over 3 start seeds") || strings.Count(out, "\n") != len(three.Facts)+1 {
			t.Errorf("Fig %d rendered:\n%s", fig, out)
		}
	}
}

// One sweep of every seeded output gives each output what its own
// seeded call gives, field for field, from 3 simulations and 8 followers
// per seed: Fig 11's 40-s T1 run, and T1 and T2 with every other Kmax
// following. Unseeded, every figure and table is 5 simulations and 8
// followers.
func TestAllSeedsMatchesParts(t *testing.T) {
	const seeds = 2
	all, err := Regenerate([]int{11, 12, 13}, true, 2, seeds, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if all.Simulations != 3*seeds || all.Followers != 8*seeds {
		t.Errorf("%d simulations and %d followers, want %d and %d", all.Simulations, all.Followers, 3*seeds, 8*seeds)
	}
	for i, fig := range []int{11, 12, 13} {
		part, err := FigureSeeds(fig, 2, seeds, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(all.Spreads[i], part) {
			t.Errorf("Fig %d: the sweep gives\n%+v\nFigureSeeds\n%+v", fig, all.Spreads[i], part)
		}
	}
	cells, err := TablesSeeds(nil, seeds, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all.Cells, cells) {
		t.Errorf("tables: the sweep gives\n%+v\nTablesSeeds\n%+v", all.Cells, cells)
	}
	one, err := Regenerate([]int{1, 2, 11, 12, 13}, true, 2, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if one.Simulations != 5 || one.Followers != 8 || len(one.Reports) != 17 {
		t.Errorf("unseeded: %d simulations, %d followers and %d reports, want 5, 8 and 17", one.Simulations, one.Followers, len(one.Reports))
	}
}

// mustFigure is Fig n as data, Fig 11 at kmax, panicking on an unknown n.
func mustFigure(n, kmax int) output {
	out, err := figure(n, kmax)
	if err != nil {
		panic(err)
	}
	return out
}

// mustConfig is cfg, panicking on err; for the tests' static configs.
func mustConfig(cfg scenario.Config, err error) scenario.Config {
	if err != nil {
		panic(err)
	}
	return cfg
}

// A bad scale or Kmax reaches every exported entry point's caller as the
// preset's error, not as a panic.
func TestBadParamsAreErrors(t *testing.T) {
	calls := map[string]func() error{
		"Figure1 scale 0":    func() error { _, err := Figure1(scenario.WithScale(0)); return err },
		"Figure2 kmax 0":     func() error { _, err := Figure2(scenario.WithKmax(0)); return err },
		"Figure11 kmax 0":    func() error { _, err := Figure11(0, 1); return err },
		"TablesSweep kmax 0": func() error { _, _, err := TablesSweep([]int{2, 0}, 1, 1); return err },
		"TablesSeeds kmax 0": func() error { _, err := TablesSeeds([]int{0}, 2, 1, 1); return err },
		"FigureSeeds kmax 0": func() error { _, err := FigureSeeds(11, 0, 2, 1, 1); return err },
	}
	for _, scale := range []float64{0, -1} {
		at := fmt.Sprintf(" scale %v", scale)
		calls["Figure11"+at] = func() error { _, err := Figure11(2, scale); return err }
		calls["Figure12"+at] = func() error { _, err := Figure12(scale, 1); return err }
		calls["Figure13"+at] = func() error { _, err := Figure13(scale); return err }
		calls["TablesSweep"+at] = func() error { _, _, err := TablesSweep(nil, scale, 1); return err }
		calls["TablesSeeds"+at] = func() error { _, err := TablesSeeds(nil, 2, scale, 1); return err }
		for _, fig := range []int{11, 12, 13} {
			calls[fmt.Sprintf("FigureSeeds %d%s", fig, at)] = func() error { _, err := FigureSeeds(fig, 2, 2, scale, 1); return err }
		}
		calls["TransportSweep"+at] = func() error { _, err := TransportSweep(scale, 1); return err }
		for _, seeds := range []int{0, 2} {
			for _, fig := range []int{1, 2, 11, 12, 13} {
				if seeds == 0 || fig > 2 {
					calls[fmt.Sprintf("Regenerate %d seeds %d%s", fig, seeds, at)] = func() error {
						_, err := Regenerate([]int{fig}, false, 2, seeds, scale, 1)
						return err
					}
				}
			}
			calls[fmt.Sprintf("Regenerate tables seeds %d%s", seeds, at)] = func() error {
				_, err := Regenerate(nil, true, 2, seeds, scale, 1)
				return err
			}
		}
	}
	calls["Regenerate kmax 0"] = func() error { _, err := Regenerate([]int{12, 11}, true, 0, 0, 1, 1); return err }
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			if err := call(); err == nil || !strings.Contains(err.Error(), "must be") {
				t.Fatalf("got error %v, want the preset's", err)
			}
		})
	}
	// What no preset rejects is Regenerate's and the seeded calls' own error.
	for name, call := range map[string]func() error{
		"unknown figure":        func() error { _, err := Regenerate([]int{12, 3}, false, 2, 0, 1, 1); return err },
		"seeded Figure 1":       func() error { _, err := Regenerate([]int{1}, true, 2, 2, 1, 1); return err },
		"negative seeds":        func() error { _, err := Regenerate(nil, true, 2, -1, 1, 1); return err },
		"FigureSeeds 0 seeds":   func() error { _, err := FigureSeeds(12, 2, 0, 1, 1); return err },
		"TablesSeeds 0 seeds":   func() error { _, err := TablesSeeds(nil, 0, 1, 1); return err },
		"FigureSeeds Figure 2":  func() error { _, err := FigureSeeds(2, 2, 2, 1, 1); return err },
		"FigureSeeds Figure 14": func() error { _, err := FigureSeeds(14, 2, 2, 1, 1); return err },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
