// Package figures regenerates every figure and table of the paper's
// evaluation (§5) from the simulator: Fig 1 (RAP sawtooth), Fig 2
// (filling/draining with receiver buffering), Fig 11 (detailed T1 trace),
// Fig 12 (effect of Kmax), Fig 13 (responsiveness to a CBR burst), and
// Tables 1-2 (buffering efficiency and poor-distribution drops). Each
// is data for one sweep, which runs every cell the outputs read once.
//
// All presets use the paper-axis scale by default (C = 10 KB/s, the
// published figure axes); see DESIGN.md for why the raw 800 Kb/s / 20
// flow parameterization puts TCP in a degenerate two-packet-window
// regime.
package figures

import (
	"fmt"
	"io"
	"slices"

	"qav/internal/core"
	"qav/internal/metrics"
	"qav/internal/scenario"
	"qav/internal/trace"
	"qav/internal/transport"
)

// DefaultScale reproduces the paper's published figure axes
// (C = 10 KB/s with the QA flow at 20-40+ KB/s).
const DefaultScale = 8.0

// Result is one regenerated figure: its time series plus a summary of
// scalar facts a test or reader can check against the paper.
//
// Every underlying run has its own metrics registry, so Reports carries
// one machine-diffable run report per cell the figure reads (the qafig
// -report artifact). Instrumentation is observation-only: the rendered
// series and facts are byte-identical with or without it.
type Result struct {
	Name    string
	Series  *trace.Set
	Summary []Fact
	Reports []scenario.RunReport // one per cell, in cell order
}

// Fact is one scalar finding with the paper's corresponding claim.
type Fact struct {
	Key   string
	Value float64
	Note  string
}

// fact appends a summary fact.
func (r *Result) fact(key string, v float64, note string) {
	r.Summary = append(r.Summary, Fact{Key: key, Value: v, Note: note})
}

// Get returns a summary fact value by key (0 if absent).
func (r *Result) Get(key string) float64 {
	for _, f := range r.Summary {
		if f.Key == key {
			return f.Value
		}
	}
	return 0
}

// Render writes the summary and all series as commented TSV.
func (r *Result) Render(w io.Writer) error {
	if err := r.renderSummary(w); err != nil {
		return err
	}
	return r.Series.WriteTSV(w)
}

// renderSummary writes the figure's name and facts.
func (r *Result) renderSummary(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "## %s\n", r.Name)
	for _, f := range r.Summary {
		fmt.Fprintf(ew, "# %-28s %12.3f   %s\n", f.Key, f.Value, f.Note)
	}
	return ew.err
}

// errWriter passes writes to w until one fails and then keeps that
// error, so a renderer checks once, at its end.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (n int, err error) {
	if e.err == nil {
		n, e.err = e.w.Write(p)
	}
	return n, e.err
}

// cell is one run an output reads: test's preset at kmax, cut to its
// first dur seconds when dur > 0, from start seed seed (0: the preset's
// own starts), on transport tr when set.
type cell struct {
	test string
	kmax int
	dur  float64
	seed int64
	tr   transport.Kind
}

// config is c's config at scale: the preset at c's Kmax and scale, then
// opts, then c's transport.
func (c cell) config(scale float64, opts []scenario.PresetOption) (scenario.Config, error) {
	o := append([]scenario.PresetOption{scenario.WithKmax(c.kmax), scenario.WithScale(scale)}, opts...)
	if c.tr != "" {
		o = append(o, scenario.WithTransport(c.tr))
	}
	cfg, err := scenario.Preset(c.test, o...)
	if c.dur > 0 {
		cfg.Duration = c.dur
	}
	cfg.StartSeed = c.seed
	return cfg, err
}

// output is one figure or table as data: the cells it reads, whether it
// reads their series, and its facts of cell k's run, written to out. A
// table (facts nil) reads its cells' reports.
type output struct {
	name   string
	cells  []cell
	series bool
	facts  func(out *Result, k int, res *scenario.Result)
}

// figure returns Fig n as data, Fig 11 at kmax.
func figure(n, kmax int) (output, error) {
	switch n {
	case 1:
		return output{"Figure 1: transmission rate of a single RAP flow", []cell{{test: "SingleRAP", kmax: 2}}, true, figure1Facts}, nil
	case 2:
		return output{"Figure 2: layered encoding with receiver buffering", []cell{{test: "SingleQA", kmax: 2}}, true, figure2Facts}, nil
	case 11: // the paper shows the first 40 seconds
		return output{fmt.Sprintf("Figure 11: first 40 seconds of the Kmax=%d T1 trace", kmax), []cell{{test: "T1", kmax: kmax, dur: 40}}, true, figure11Facts}, nil
	case 12:
		return output{"Figure 12: effect of Kmax on buffering and quality", []cell{{test: "T1", kmax: 2}, {test: "T1", kmax: 3}, {test: "T1", kmax: 4}}, true, figure12Facts}, nil
	case 13:
		return output{"Figure 13: effect of long-term changes in bandwidth (CBR burst)", []cell{{test: "T2", kmax: 4}}, true, figure13Facts}, nil
	}
	return output{}, fmt.Errorf("unknown figure %d (have 1, 2, 11, 12, 13)", n)
}

// tableOutput is Tables 1-2 as data: T1, then T2, at each Kmax (the
// paper's when kmaxes is empty).
func tableOutput(kmaxes []int) output {
	if len(kmaxes) == 0 {
		kmaxes = []int{2, 3, 4, 5, 8}
	}
	var cells []cell
	for _, test := range []string{"T1", "T2"} {
		for _, kmax := range kmaxes {
			cells = append(cells, cell{test: test, kmax: kmax})
		}
	}
	return output{cells: cells}
}

// figure1Facts is Fig 1's sawtooth against the link bandwidth.
func figure1Facts(out *Result, _ int, res *scenario.Result) {
	cfg := res.Cfg
	out.Series = trace.NewSet()
	rate := res.Series.Get("rap0.rate").Alias("rap.rate")
	lnk := &trace.Series{Name: "link.bandwidth", T: rate.T, V: make([]float64, rate.Len())}
	for i := range lnk.V {
		lnk.V[i] = cfg.BottleneckRate
	}
	out.Series.Add(rate)
	out.Series.Add(lnk)
	out.fact("avg_rate", rate.AvgBetween(10, cfg.Duration), "average of sawtooth; paper: hunts around fair share")
	out.fact("backoffs", float64(res.RAPSrcs[0].Tr.Counters().Backoffs), "multiplicative decreases (sawtooth teeth)")
	out.fact("link_bw", cfg.BottleneckRate, "bottleneck bandwidth (B/s)")
}

// figure2Facts is Fig 2's layers and base-layer buffering.
func figure2Facts(out *Result, _ int, res *scenario.Result) {
	out.Series = res.Series
	maxLayers, _ := res.Series.Get("qa.layers").Max()
	out.fact("max_layers", maxLayers, "layers reached on a 12 KB/s link with C=3 KB/s")
	out.fact("backoffs", float64(res.Stats.Backoffs), "congestion backoffs absorbed")
	out.fact("stall_sec", res.StallSec, "playback stalls (paper: buffering prevents dropouts)")
	bufL0Max, _ := res.Series.Get("qa.buf.l0").Max()
	out.fact("buf_l0_max", bufL0Max, "peak base-layer buffering (B)")
}

// figure11Facts is Fig 11's trace and its averages over 10-40 s.
func figure11Facts(out *Result, _ int, res *scenario.Result) {
	out.Series = res.Series
	out.fact("avg_rate", res.Series.Get("qa.rate").AvgBetween(10, 40), "QA flow transmission rate (B/s)")
	out.fact("avg_layers", res.Series.Get("qa.layers").AvgBetween(10, 40), "active layers")
	out.fact("buf_l0_avg", res.Series.Get("qa.buf.l0").AvgBetween(10, 40), "base layer buffers most (paper Fig 11)")
	out.fact("buf_l3_avg", res.Series.Get("qa.buf.l3").AvgBetween(10, 40), "highest traced layer buffers least")
	out.fact("stall_sec", res.StallSec, "playback stalls (paper: none)")
}

// figure12Facts is Fig 12's layers and total buffering of a T1 run.
func figure12Facts(out *Result, _ int, res *scenario.Result) {
	kmax, buft := res.Cfg.QA.Kmax, res.Series.Get("qa.buftotal")
	out.Series = trace.NewSet()
	out.Series.Add(res.Series.Get("qa.layers").Alias(fmt.Sprintf("kmax%d.layers", kmax)))
	out.Series.Add(buft.Alias(fmt.Sprintf("kmax%d.buftotal", kmax)))
	out.fact(fmt.Sprintf("kmax%d.changes", kmax), float64(res.Stats.Adds+res.Stats.Drops), "quality changes (fewer with higher Kmax)")
	out.fact(fmt.Sprintf("kmax%d.buf_avg", kmax), buft.AvgBetween(30, res.Cfg.Duration), "avg total buffering (more with higher Kmax)")
	bufMax, _ := buft.Max()
	out.fact(fmt.Sprintf("kmax%d.buf_max", kmax), bufMax, "peak total buffering")
}

// figure13Facts is Fig 13's layers before, during and after the burst.
func figure13Facts(out *Result, _ int, res *scenario.Result) {
	out.Series = res.Series
	layers := res.Series.Get("qa.layers")
	out.fact("layers_before", layers.AvgBetween(15, 30), "avg layers before the burst")
	out.fact("layers_during", layers.AvgBetween(40, 60), "avg layers during the burst (drops)")
	out.fact("layers_after", layers.AvgBetween(75, 90), "avg layers after the burst (recovers)")
	out.fact("stall_sec", res.StallSec, "base layer never jeopardized (paper)")
	out.fact("drops", float64(res.Stats.Drops), "layer drops")
	out.fact("adds", float64(res.Stats.Adds), "layer additions")
}

// Outputs is what one sweep regenerated: unseeded, a Result per figure,
// the tables' cells and every cell's report (figures first, in cell
// order); over start seeds, a Spread per figure and CellSpreads.
type Outputs struct {
	Figures []*Result
	Spreads []*Spread
	Tables  []TableCell
	Cells   []CellSpread
	Reports []scenario.RunReport

	// Simulations and Followers count the runs: each cell ran once,
	// simulated or following a simulation of its network.
	Simulations, Followers int
}

// Regenerate runs figs (of 1, 2, 11, 12, 13; Fig 11 at kmax) and, if
// tables is set, Tables 1-2 in one sweep on workers goroutines (<= 0
// means one per CPU), every cell once. With seeds > 0 every fact and
// table cell is taken over start seeds 1..seeds (Figs 1-2 have no
// seeded form).
func Regenerate(figs []int, tables bool, kmax, seeds int, scale float64, workers int, opts ...scenario.PresetOption) (*Outputs, error) {
	if seeds < 0 {
		return nil, fmt.Errorf("figures: %d seeds", seeds)
	}
	var outs []output
	for _, n := range figs {
		out, err := figure(n, kmax)
		if err != nil {
			return nil, err
		}
		if seeds > 0 && n < 11 {
			return nil, fmt.Errorf("figures: no seeded Figure %d (have 11, 12, 13)", n)
		}
		outs = append(outs, out)
	}
	if tables {
		outs = append(outs, tableOutput(nil))
	}
	return sweep(outs, seeds, scale, workers, opts)
}

// sweep runs every cell that outs read, at start seeds 1..seeds (at the
// cells' own seed when seeds is 0), once each, in one scenario.RunEach
// call: a cell is traced only if an output that reads it reads series,
// and cells that share a network follow one simulation. Each output
// then gathers its cells' facts, series and reports (instrumented when
// unseeded), in outs' order.
func sweep(outs []output, seeds int, scale float64, workers int, opts []scenario.PresetOption) (*Outputs, error) {
	type reader struct {
		p, k  int // the slot, and the cell of its output
		facts func(out *Result, k int, res *scenario.Result)
	}
	n := 0
	for _, out := range outs {
		n += len(out.cells) * max(seeds, 1)
	}
	// One slot per output, seed and cell, in that order, with its report
	// at the same index.
	slots, reps := make([]Result, n), make([]scenario.RunReport, n)
	cfgs := make([]scenario.Config, 0, n)
	var traced []bool
	var readers [][]reader
	index := map[cell]int{}
	got, p := make([][][]Result, len(outs)), 0 // got[o][s][k]: slots
	for o, out := range outs {
		got[o] = make([][]Result, max(seeds, 1))
		for s := range got[o] {
			got[o][s] = slots[p : p+len(out.cells)]
			for k, c := range out.cells {
				if seeds > 0 {
					c.seed = int64(s + 1)
				}
				j, ok := index[c]
				if !ok {
					cfg, err := c.config(scale, opts)
					if err != nil {
						return nil, err
					}
					if seeds == 0 {
						cfg.Metrics = metrics.NewRegistry()
					}
					j, index[c] = len(cfgs), len(cfgs)
					cfgs, traced, readers = append(cfgs, cfg), append(traced, false), append(readers, nil)
				}
				traced[j] = traced[j] || out.series
				readers[j] = append(readers[j], reader{p, k, out.facts})
				p++
			}
		}
	}
	sims, err := scenario.RunEach(cfgs, workers, func(j int) bool { return traced[j] }, func(j int, res *scenario.Result) {
		rep := res.Report()
		for _, r := range readers[j] {
			to := &slots[r.p]
			if r.facts != nil {
				r.facts(to, r.k, res)
			}
			if seeds > 0 { // a seeded output reads facts alone
				to.Series = nil
			}
			reps[r.p] = rep
			to.Reports = reps[r.p : r.p+1 : r.p+1]
		}
	})
	if err != nil {
		return nil, err
	}
	res := &Outputs{Simulations: sims, Followers: len(cfgs) - sims}
	if seeds == 0 {
		res.Reports = reps
	}
	for o, out := range outs {
		switch {
		case out.facts == nil && seeds == 0:
			for k, c := range out.cells {
				res.Tables = append(res.Tables, TableCell{Test: c.test, Kmax: c.kmax, DropStats: got[o][0][k].Reports[0].Drops})
			}
		case out.facts == nil:
			res.Cells = cellSpreads(out.cells, got[o])
		case seeds == 0:
			res.Figures = append(res.Figures, merge(out.name, got[o][0]))
		default:
			res.Spreads = append(res.Spreads, spread(out.name, got[o]))
		}
	}
	return res, nil
}

// merge is the figure named name of its cells' facts, series and
// reports, in cell order.
func merge(name string, cells []Result) *Result {
	out := &Result{Name: name, Series: trace.NewSet()}
	for _, c := range cells {
		out.Summary = append(out.Summary, c.Summary...)
		out.Reports = append(out.Reports, c.Reports...)
		if c.Series == nil {
			continue
		}
		for _, name := range c.Series.Names() {
			out.Series.Add(c.Series.Get(name))
		}
	}
	return out
}

// Render writes the outputs: each figure, each spread, then the
// tables. A figure is its summary and series; with summaries set, its
// summary alone, and a blank line ends each figure and spread. The
// renderers fail only as w does, so ew holds their first error.
func (o *Outputs) Render(w io.Writer, summaries bool) error {
	ew := &errWriter{w: w}
	for _, r := range o.Figures {
		if !summaries {
			r.Render(ew)
			continue
		}
		r.renderSummary(ew)
		fmt.Fprintln(ew)
	}
	for _, s := range o.Spreads {
		s.Render(ew)
		if summaries {
			fmt.Fprintln(ew)
		}
	}
	if o.Tables != nil {
		RenderTables(ew, o.Tables)
	}
	if o.Cells != nil {
		RenderSpreads(ew, o.Cells)
	}
	return ew.err
}

// one regenerates Fig n alone, unseeded.
func one(n, kmax int, scale float64, workers int, opts []scenario.PresetOption) (*Result, error) {
	out, err := Regenerate([]int{n}, false, kmax, 0, scale, workers, opts...)
	if err != nil {
		return nil, err
	}
	return out.Figures[0], nil
}

// Figure1 regenerates the RAP sawtooth trace: one RAP flow alone on a
// small bottleneck, transmission rate vs time against the link bandwidth.
func Figure1(opts ...scenario.PresetOption) (*Result, error) { return one(1, 2, 1, 1, opts) }

// Figure2 regenerates the conceptual filling/draining demonstration: a
// single QA flow whose receiver buffers absorb backoffs while layers
// keep playing.
func Figure2(opts ...scenario.PresetOption) (*Result, error) { return one(2, 2, 1, 1, opts) }

// Figure11 regenerates the detailed T1 trace: total transmit and
// consumption rate, per-layer transmit-rate breakdown, per-layer drain
// rate, and per-layer buffered data, with Kmax = 2 as in the paper.
func Figure11(kmax int, scale float64, opts ...scenario.PresetOption) (*Result, error) {
	return one(11, kmax, scale, 1, opts)
}

// Figure12 regenerates the Kmax comparison: number of active layers and
// per-layer buffering for Kmax in {2, 3, 4}. Kmax changes only the
// controller, so T1 is simulated once, at Kmax 2, and the other two
// follow it; workers is the sweep's.
func Figure12(scale float64, workers int, opts ...scenario.PresetOption) (*Result, error) {
	return one(12, 2, scale, workers, opts)
}

// Figure13 regenerates the responsiveness experiment: T2's CBR source at
// half the bottleneck bandwidth from t=30s to t=60s, Kmax = 4.
func Figure13(scale float64, opts ...scenario.PresetOption) (*Result, error) {
	return one(13, 2, scale, 1, opts)
}

// TableCell is one (test, Kmax) sweep outcome.
type TableCell struct {
	Test string
	Kmax int
	core.DropStats
}

// TablesSweep runs the Table 1/2 sweep, T1 and T2 at each Kmax (the
// paper's 2, 3, 4, 5 and 8 when kmaxes is empty), untraced, on workers
// goroutines (<= 0 means one per CPU). Kmax changes only the controller,
// so each test is simulated once and its other Kmax values follow it.
// It returns the cells and one run report per cell, in cell order, each
// byte-identical to a full simulation of its cell.
func TablesSweep(kmaxes []int, scale float64, workers int, opts ...scenario.PresetOption) ([]TableCell, []scenario.RunReport, error) {
	out, err := sweep([]output{tableOutput(kmaxes)}, 0, scale, workers, opts)
	if err != nil {
		return nil, nil, err
	}
	return out.Tables, out.Reports, nil
}

// CellSpread is one (test, Kmax) cell over start seeds 1..Seeds
// (scenario.Config.StartSeed): Table 1's efficiency and Table 2's
// poor-distribution share, in percent, each as its 10th percentile,
// median and 90th percentile over the Dropped seeds whose run dropped a
// layer (a run without a drop has neither number).
type CellSpread struct {
	Test          string
	Kmax          int
	Seeds         int
	Dropped       int
	Eff, PoorDist [3]float64
}

// TablesSeeds runs the Table 1/2 sweep once per start seed 1..seeds in
// one sweep, untraced: 2 simulations + 2·(len(kmaxes)−1) followers per
// seed (8 at the paper's Kmax values), on workers goroutines (<= 0
// means one per CPU). It returns the cells in TablesSweep's order.
func TablesSeeds(kmaxes []int, seeds int, scale float64, workers int, opts ...scenario.PresetOption) ([]CellSpread, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("figures: %d seeds", seeds)
	}
	out, err := sweep([]output{tableOutput(kmaxes)}, seeds, scale, workers, opts)
	if err != nil {
		return nil, err
	}
	return out.Cells, nil
}

// cellSpreads is the table cells' spreads over the seeds of got, one
// []Result per seed.
func cellSpreads(cells []cell, got [][]Result) []CellSpread {
	out := make([]CellSpread, len(cells))
	for k, c := range cells {
		var eff, poor []float64
		for s := range got {
			if d := got[s][k].Reports[0].Drops; d.Drops > 0 {
				eff = append(eff, 100*d.AvgEfficiency)
				poor = append(poor, d.PoorDistPct)
			}
		}
		out[k] = CellSpread{Test: c.test, Kmax: c.kmax, Seeds: len(got), Dropped: len(eff), Eff: deciles(eff), PoorDist: deciles(poor)}
	}
	return out
}

// Spread is a figure's facts over start seeds 1..Seeds, each as its
// 10th percentile, median and 90th percentile (deciles).
type Spread struct {
	Name  string
	Seeds int
	Facts []FactSpread
}

// FactSpread is one fact of a Spread.
type FactSpread struct {
	Key, Note string
	Deciles   [3]float64
}

// FigureSeeds gives Fig 11, 12 or 13's facts over start seeds 1..seeds
// (scenario.Config.StartSeed), each seed's cells run as Regenerate runs
// them, on workers goroutines (<= 0 means one per CPU).
func FigureSeeds(fig, kmax, seeds int, scale float64, workers int, opts ...scenario.PresetOption) (*Spread, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("figures: %d seeds", seeds)
	}
	out, err := Regenerate([]int{fig}, false, kmax, seeds, scale, workers, opts...)
	if err != nil {
		return nil, err
	}
	return out.Spreads[0], nil
}

// spread is the figure named name over the seeds of got, one []Result
// per seed: a seed's facts are its cells', in cell order.
func spread(name string, got [][]Result) *Spread {
	out := &Spread{Name: name, Seeds: len(got)}
	bySeed := make([]*Result, len(got))
	for s, cells := range got {
		bySeed[s] = merge(name, cells)
	}
	for k, f := range bySeed[0].Summary {
		v := make([]float64, len(got))
		for s, r := range bySeed {
			v[s] = r.Summary[k].Value
		}
		out.Facts = append(out.Facts, FactSpread{Key: f.Key, Note: f.Note, Deciles: deciles(v)})
	}
	return out
}

// Render writes the spread as a figure summary, each fact as "median
// [p10, p90]".
func (s *Spread) Render(w io.Writer) error {
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "## %s, median [p10, p90] over %d start seeds\n", s.Name, s.Seeds)
	for _, f := range s.Facts {
		d := f.Deciles
		fmt.Fprintf(ew, "# %-28s %12.3f [%.3f, %.3f]   %s\n", f.Key, d[1], d[0], d[2], f.Note)
	}
	return ew.err
}

// deciles returns v's 10th percentile, median and 90th percentile,
// interpolated linearly between order statistics (zeros for an empty v).
// It sorts v.
func deciles(v []float64) [3]float64 {
	if len(v) == 0 {
		return [3]float64{}
	}
	slices.Sort(v)
	q := func(p float64) float64 {
		x := p * float64(len(v)-1)
		i := int(x)
		if i+1 == len(v) {
			return v[i]
		}
		return v[i] + (x-float64(i))*(v[i+1]-v[i])
	}
	return [3]float64{q(0.1), q(0.5), q(0.9)}
}

// RenderTables writes Table 1 (buffering efficiency) and Table 2 (drops
// due to poor buffer distribution) from sweep cells.
func RenderTables(w io.Writer, cells []TableCell) error {
	return renderTables(w, cells, 13, func(c TableCell) (string, int, bool) { return c.Test, c.Kmax, c.Drops > 0 },
		[2]string{"Table 1: buffering efficiency e (paper: 96-99.99%)", "Table 2: drops due to poor buffer distribution (paper: 0-11%)"},
		func(c TableCell) string { return fmt.Sprintf("%.2f%%", 100*c.AvgEfficiency) },
		func(c TableCell) string { return fmt.Sprintf("%.1f%%", c.PoorDistPct) })
}

// RenderSpreads writes Tables 1 and 2 from TablesSeeds cells, each cell
// as "median [p10, p90]" in percent. A cell with seeds that dropped no
// layer gives their count after a slash ("/3": three seeds left out).
func RenderSpreads(w io.Writer, cells []CellSpread) error {
	seeds := 0
	for _, c := range cells {
		seeds = c.Seeds
	}
	spread := func(format string, c CellSpread, d [3]float64) string {
		s := fmt.Sprintf(format, d[1], d[0], d[2])
		if c.Dropped < c.Seeds {
			s += fmt.Sprintf("/%d", c.Seeds-c.Dropped)
		}
		return s
	}
	return renderTables(w, cells, 22, func(c CellSpread) (string, int, bool) { return c.Test, c.Kmax, c.Dropped > 0 },
		[2]string{
			fmt.Sprintf("Table 1: buffering efficiency e %%, median [p10, p90] over %d start seeds (paper: 96-99.99%%)", seeds),
			fmt.Sprintf("Table 2: drops due to poor buffer distribution %%, median [p10, p90] over %d start seeds (paper: 0-11%%)", seeds),
		},
		func(c CellSpread) string { return spread("%.2f [%.2f, %.2f]", c, c.Eff) },
		func(c CellSpread) string { return spread("%.1f [%.1f, %.1f]", c, c.PoorDist) })
}

// renderTables writes Tables 1 and 2 of cells, titled titles, in
// columns width wide, each cell ending in a space (a wider one pushes
// the row right): a header of the cells' distinct Kmax values in
// ascending order, then a row each for T1 and T2. key gives a cell's
// test and Kmax and whether its run dropped a layer; table t writes a
// cell that did as cell[t] does, "no-drops" for one that did not, and
// "-" where no cell is.
func renderTables[C any](w io.Writer, cells []C, width int, key func(C) (test string, kmax int, dropped bool), titles [2]string, cell ...func(C) string) error {
	byKey := map[string]C{}
	var kmaxes []int
	for _, c := range cells {
		test, kmax, _ := key(c)
		byKey[fmt.Sprintf("%s/%d", test, kmax)] = c
		kmaxes = append(kmaxes, kmax)
	}
	slices.Sort(kmaxes)
	kmaxes = slices.Compact(kmaxes)
	ew := &errWriter{w: w}
	column := func(text string) { fmt.Fprintf(ew, "%-*s ", width-1, text) }
	for t, title := range titles {
		fmt.Fprintf(ew, "%s\n      ", title)
		for _, k := range kmaxes {
			column(fmt.Sprintf("Kmax=%d", k))
		}
		fmt.Fprintln(ew)
		for _, test := range []string{"T1", "T2"} {
			fmt.Fprintf(ew, "%-6s", test)
			for _, k := range kmaxes {
				text := "-"
				if c, ok := byKey[fmt.Sprintf("%s/%d", test, k)]; ok {
					text = "no-drops"
					if _, _, dropped := key(c); dropped {
						text = cell[t](c)
					}
				}
				column(text)
			}
			fmt.Fprintln(ew)
		}
		fmt.Fprintln(ew)
	}
	return ew.err
}

// TransportSweep runs the transport A/B comparison as one figure: for
// each backend (the paper's RAP, the delay-based GCC-style controller and
// the loss-greedy baseline) the Figure 11 scenario (T1, Kmax=2, first
// 40 seconds) and the Fleet preset, each QA rate and layer series, and
// matched facts: rate, layers, stalls, losses, backoffs, Fleet goodput
// split and TCP fairness. Does QA's buffer-distribution math survive a
// controller that backs off before loss, or a standing-queue adversary?
// The 2×3 simulations run on workers goroutines (<= 0: one per CPU).
func TransportSweep(scale float64, workers int) (*Outputs, error) {
	var cells []cell
	for _, k := range []transport.Kind{transport.KindRAP, transport.KindDelay, transport.KindGreedy} {
		cells = append(cells, cell{test: "T1", kmax: 2, dur: 40, tr: k}, cell{test: "Fleet", kmax: 2, tr: k})
	}
	return sweep([]output{{"Transport A/B: rap vs delay vs greedy (Fig 11 scenario + Fleet)", cells, true, transportFacts}}, 0, scale, workers, nil)
}

// transportFacts is the A/B facts of cell k: T1's rate, layers, stalls,
// losses and backoffs for even k, Fleet's goodput split and TCP fairness
// for odd k.
func transportFacts(out *Result, k int, res *scenario.Result) {
	kind := res.Cfg.Transport
	if k%2 == 1 {
		fs := res.Report().Fleet
		out.fact(fmt.Sprintf("%s.fleet_qa_goodput", kind), fs.QAGoodputBps, "Fleet QA goodput (B/s)")
		out.fact(fmt.Sprintf("%s.fleet_tcp_goodput", kind), fs.TCPGoodputBps, "Fleet TCP goodput (B/s)")
		out.fact(fmt.Sprintf("%s.fleet_jain_tcp", kind), fs.JainFairnessTCP, "Jain fairness across Fleet TCP flows")
		return
	}
	rate := res.Series.Get("qa.rate")
	layers := res.Series.Get("qa.layers")
	out.Series = trace.NewSet()
	out.Series.Add(rate.Alias(fmt.Sprintf("%s.qa.rate", kind)))
	out.Series.Add(layers.Alias(fmt.Sprintf("%s.qa.layers", kind)))
	ctr := res.QASrc.Tr.Counters()
	out.fact(fmt.Sprintf("%s.avg_rate", kind), rate.AvgBetween(10, 40), "QA transmission rate, Fig 11 scenario (B/s)")
	out.fact(fmt.Sprintf("%s.avg_layers", kind), layers.AvgBetween(10, 40), "active layers")
	out.fact(fmt.Sprintf("%s.stall_sec", kind), res.StallSec, "playback stalls (s)")
	out.fact(fmt.Sprintf("%s.backoffs", kind), float64(ctr.Backoffs), "rate decreases (loss or overuse)")
	out.fact(fmt.Sprintf("%s.lost_pkts", kind), float64(ctr.Lost), "QA data packets inferred lost")
	if res.Stats.Drops > 0 {
		out.fact(fmt.Sprintf("%s.efficiency", kind), 100*res.Stats.AvgEfficiency, "buffering efficiency over drops (%)")
		out.fact(fmt.Sprintf("%s.poor_dist_pct", kind), res.Stats.PoorDistPct, "drops from poor buffer distribution (%)")
	}
}
