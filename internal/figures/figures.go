// Package figures regenerates every figure and table of the paper's
// evaluation (§5) from the simulator: Fig 1 (RAP sawtooth), Fig 2
// (filling/draining with receiver buffering), Fig 11 (detailed T1 trace),
// Fig 12 (effect of Kmax), Fig 13 (responsiveness to a CBR burst), and
// Tables 1-2 (buffering efficiency and poor-distribution drops).
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
// Every underlying simulation runs with its own metrics registry, so
// Reports carries one machine-diffable run report per simulation (the
// qafig -report artifact). Instrumentation is observation-only: the
// rendered series and facts are byte-identical with or without it.
type Result struct {
	Name    string
	Series  *trace.Set
	Summary []Fact
	Run     *scenario.Result     // last underlying run (nil for tables)
	Reports []scenario.RunReport // one per underlying simulation
}

// instrumented attaches a fresh per-run registry to cfg and returns it.
func instrumented(cfg scenario.Config) scenario.Config {
	cfg.Metrics = metrics.NewRegistry()
	return cfg
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
	if _, err := fmt.Fprintf(w, "## %s\n", r.Name); err != nil {
		return err
	}
	for _, f := range r.Summary {
		if _, err := fmt.Fprintf(w, "# %-28s %12.3f   %s\n", f.Key, f.Value, f.Note); err != nil {
			return err
		}
	}
	return r.Series.WriteTSV(w)
}

// Figure1 regenerates the RAP sawtooth trace: one RAP flow alone on a
// small bottleneck, transmission rate vs time against the link bandwidth.
func Figure1(opts ...scenario.PresetOption) (*Result, error) {
	res, err := runPreset(scenario.Preset("SingleRAP", opts...))
	if err != nil {
		return nil, err
	}
	cfg := res.Cfg
	out := &Result{Name: "Figure 1: transmission rate of a single RAP flow", Run: res}
	out.Reports = append(out.Reports, res.Report())
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
	return out, nil
}

// Figure2 regenerates the conceptual filling/draining demonstration: a
// single QA flow whose receiver buffers absorb backoffs while layers
// keep playing.
func Figure2(opts ...scenario.PresetOption) (*Result, error) {
	res, err := runPreset(scenario.Preset("SingleQA", append([]scenario.PresetOption{scenario.WithKmax(2)}, opts...)...))
	if err != nil {
		return nil, err
	}
	out := &Result{Name: "Figure 2: layered encoding with receiver buffering", Run: res}
	out.Reports = append(out.Reports, res.Report())
	out.Series = res.Series
	maxLayers, _ := res.Series.Get("qa.layers").Max()
	out.fact("max_layers", maxLayers, "layers reached on a 12 KB/s link with C=3 KB/s")
	out.fact("backoffs", float64(res.Stats.Backoffs), "congestion backoffs absorbed")
	out.fact("stall_sec", res.StallSec, "playback stalls (paper: buffering prevents dropouts)")
	bufL0Max, _ := res.Series.Get("qa.buf.l0").Max()
	out.fact("buf_l0_max", bufL0Max, "peak base-layer buffering (B)")
	return out, nil
}

// runPreset runs cfg instrumented, unless err, the error of the preset
// that made cfg, is set.
func runPreset(cfg scenario.Config, err error) (*scenario.Result, error) {
	if err != nil {
		return nil, err
	}
	return scenario.Run(instrumented(cfg))
}

// preset is test's preset at kmax and scale, opts applied after.
func preset(test string, kmax int, scale float64, opts []scenario.PresetOption) (scenario.Config, error) {
	return scenario.Preset(test, append([]scenario.PresetOption{scenario.WithKmax(kmax), scenario.WithScale(scale)}, opts...)...)
}

// figure11Config is Fig 11's run: T1 at kmax, its first 40 seconds.
func figure11Config(kmax int, scale float64, opts []scenario.PresetOption) (scenario.Config, error) {
	cfg, err := preset("T1", kmax, scale, opts)
	cfg.Duration = 40 // the paper shows the first 40 seconds
	return cfg, err
}

// Figure11 regenerates the detailed T1 trace: total transmit and
// consumption rate, per-layer transmit-rate breakdown, per-layer drain
// rate, and per-layer buffered data, with Kmax = 2 as in the paper.
func Figure11(kmax int, scale float64, opts ...scenario.PresetOption) (*Result, error) {
	res, err := runPreset(figure11Config(kmax, scale, opts))
	if err != nil {
		return nil, err
	}
	out := &Result{Name: figure11Name(kmax), Series: res.Series, Run: res}
	out.Reports = append(out.Reports, res.Report())
	figure11Facts(out, res)
	return out, nil
}

func figure11Name(kmax int) string {
	return fmt.Sprintf("Figure 11: first 40 seconds of the Kmax=%d T1 trace", kmax)
}

// figure11Facts appends Fig 11's facts of res to out.
func figure11Facts(out *Result, res *scenario.Result) {
	out.fact("avg_rate", res.Series.Get("qa.rate").AvgBetween(10, 40), "QA flow transmission rate (B/s)")
	out.fact("avg_layers", res.Series.Get("qa.layers").AvgBetween(10, 40), "active layers")
	out.fact("buf_l0_avg", res.Series.Get("qa.buf.l0").AvgBetween(10, 40), "base layer buffers most (paper Fig 11)")
	out.fact("buf_l3_avg", res.Series.Get("qa.buf.l3").AvgBetween(10, 40), "highest traced layer buffers least")
	out.fact("stall_sec", res.StallSec, "playback stalls (paper: none)")
}

const figure12Name = "Figure 12: effect of Kmax on buffering and quality"

// Figure12 regenerates the Kmax comparison: number of active layers and
// per-layer buffering for Kmax in {2, 3, 4}. Kmax changes only the
// controller, so scenario.RunEach simulates T1 once, at Kmax 2, and the
// other two follow it; workers is RunEach's.
func Figure12(scale float64, workers int, opts ...scenario.PresetOption) (*Result, error) {
	out := &Result{Name: figure12Name, Series: trace.NewSet()}
	kmaxes := []int{2, 3, 4}
	cfgs := make([]scenario.Config, len(kmaxes))
	for i, kmax := range kmaxes {
		cfg, err := preset("T1", kmax, scale, opts)
		if err != nil {
			return nil, err
		}
		cfgs[i] = instrumented(cfg)
	}
	results := make([]*scenario.Result, len(cfgs))
	if err := scenario.RunEach(cfgs, workers, func(i int, res *scenario.Result) { results[i] = res }); err != nil {
		return nil, err
	}
	for i, res := range results {
		out.Reports = append(out.Reports, res.Report())
		out.Series.Add(res.Series.Get("qa.layers").Alias(fmt.Sprintf("kmax%d.layers", kmaxes[i])))
		out.Series.Add(res.Series.Get("qa.buftotal").Alias(fmt.Sprintf("kmax%d.buftotal", kmaxes[i])))
		figure12Facts(out, kmaxes[i], res)
		out.Run = res
	}
	return out, nil
}

// figure12Facts appends Fig 12's facts of res, the T1 run at kmax, to
// out.
func figure12Facts(out *Result, kmax int, res *scenario.Result) {
	buft := res.Series.Get("qa.buftotal")
	out.fact(fmt.Sprintf("kmax%d.changes", kmax), float64(res.Stats.Adds+res.Stats.Drops), "quality changes (fewer with higher Kmax)")
	out.fact(fmt.Sprintf("kmax%d.buf_avg", kmax), buft.AvgBetween(30, res.Cfg.Duration), "avg total buffering (more with higher Kmax)")
	bufMax, _ := buft.Max()
	out.fact(fmt.Sprintf("kmax%d.buf_max", kmax), bufMax, "peak total buffering")
}

const figure13Name = "Figure 13: effect of long-term changes in bandwidth (CBR burst)"

// Figure13 regenerates the responsiveness experiment: T2's CBR source at
// half the bottleneck bandwidth from t=30s to t=60s, Kmax = 4.
func Figure13(scale float64, opts ...scenario.PresetOption) (*Result, error) {
	res, err := runPreset(preset("T2", 4, scale, opts))
	if err != nil {
		return nil, err
	}
	out := &Result{Name: figure13Name, Series: res.Series, Run: res}
	out.Reports = append(out.Reports, res.Report())
	figure13Facts(out, res)
	return out, nil
}

// figure13Facts appends Fig 13's facts of res to out.
func figure13Facts(out *Result, res *scenario.Result) {
	layers := res.Series.Get("qa.layers")
	out.fact("layers_before", layers.AvgBetween(15, 30), "avg layers before the burst")
	out.fact("layers_during", layers.AvgBetween(40, 60), "avg layers during the burst (drops)")
	out.fact("layers_after", layers.AvgBetween(75, 90), "avg layers after the burst (recovers)")
	out.fact("stall_sec", res.StallSec, "base layer never jeopardized (paper)")
	out.fact("drops", float64(res.Stats.Drops), "layer drops")
	out.fact("adds", float64(res.Stats.Adds), "layer additions")
}

// TableCell is one (test, Kmax) sweep outcome.
type TableCell struct {
	Test string
	Kmax int
	core.DropStats
}

// TablesSweep runs the Table 1/2 sweep: tests T1 and T2 for each Kmax.
// The paper uses Kmax in {2, 3, 4, 5, 8}. Kmax changes only the
// controller, which the network never hears from, so the sweep simulates
// each test once and the other Kmax values follow it, untraced
// (scenario.RunReports): 2 simulations + 2·(len(kmaxes)−1) followers (8
// at the paper's Kmax values), on workers goroutines (<= 0 means one per
// CPU). Every report is byte-identical to a full simulation of its cell.
// The second return value is one run report per cell, in cell order.
func TablesSweep(kmaxes []int, scale float64, workers int, opts ...scenario.PresetOption) ([]TableCell, []scenario.RunReport, error) {
	cfgs, cells, err := tablesConfigs(kmaxes, scale, opts...)
	if err != nil {
		return nil, nil, err
	}
	for i := range cfgs {
		cfgs[i] = instrumented(cfgs[i])
	}
	reps, err := scenario.RunReports(cfgs, workers)
	if err != nil {
		return nil, nil, err
	}
	for i := range reps {
		cells[i].DropStats = reps[i].Drops
	}
	return cells, reps, nil
}

// tablesConfigs returns the sweep's configs, T1 then T2, each for every
// Kmax (the paper's when kmaxes is empty), and their cells.
func tablesConfigs(kmaxes []int, scale float64, opts ...scenario.PresetOption) ([]scenario.Config, []TableCell, error) {
	if len(kmaxes) == 0 {
		kmaxes = []int{2, 3, 4, 5, 8}
	}
	var cfgs []scenario.Config
	var cells []TableCell
	for _, test := range []string{"T1", "T2"} {
		for _, kmax := range kmaxes {
			cfg, err := preset(test, kmax, scale, opts)
			if err != nil {
				return nil, nil, err
			}
			cfgs = append(cfgs, cfg)
			cells = append(cells, TableCell{Test: test, Kmax: kmax})
		}
	}
	return cfgs, cells, nil
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

// seedConfigs returns the Table 1/2 sweep's configs (tablesConfigs) for
// start seeds 1..seeds in turn, and one seed's cells.
func seedConfigs(kmaxes []int, seeds int, scale float64, opts []scenario.PresetOption) ([]scenario.Config, []TableCell, error) {
	var cfgs []scenario.Config
	var cells []TableCell
	for seed := 1; seed <= seeds; seed++ {
		seedCfgs, seedCells, err := tablesConfigs(kmaxes, scale, opts...)
		if err != nil {
			return nil, nil, err
		}
		for i := range seedCfgs {
			seedCfgs[i].StartSeed = int64(seed)
		}
		cfgs, cells = append(cfgs, seedCfgs...), seedCells
	}
	return cfgs, cells, nil
}

// TablesSeeds runs the Table 1/2 sweep once per start seed 1..seeds, all
// seeds' configs in one scenario.RunReports call, untraced: 2
// simulations + 2·(len(kmaxes)−1) followers per seed (8 at the paper's
// Kmax values), on workers goroutines (<= 0 means one per CPU). It
// returns the cells in TablesSweep's order.
func TablesSeeds(kmaxes []int, seeds int, scale float64, workers int, opts ...scenario.PresetOption) ([]CellSpread, error) {
	cfgs, cells, err := seedConfigs(kmaxes, seeds, scale, opts)
	if err != nil {
		return nil, err
	}
	reps, err := scenario.RunReports(cfgs, workers)
	if err != nil {
		return nil, err
	}
	out := make([]CellSpread, len(cells))
	for i, c := range cells {
		var eff, poor []float64
		for j := i; j < len(reps); j += len(cells) {
			if d := reps[j].Drops; d.Drops > 0 {
				eff = append(eff, 100*d.AvgEfficiency)
				poor = append(poor, d.PoorDistPct)
			}
		}
		out[i] = CellSpread{Test: c.Test, Kmax: c.Kmax, Seeds: seeds, Dropped: len(eff), Eff: deciles(eff), PoorDist: deciles(poor)}
	}
	return out, nil
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
// (scenario.Config.StartSeed), on workers goroutines (<= 0 means one per
// CPU). Figs 12 and 13 read the runs of TablesSeeds's sweep at the
// paper's Kmax values, and add none: per seed, Fig 12's Kmax 2 is the T1
// simulation and its Kmax 3 and 4 follow it, and Fig 13's Kmax 4 follows
// the T2 simulation. Fig 11 is a 40-s T1 run at kmax per seed.
func FigureSeeds(fig, kmax, seeds int, scale float64, workers int, opts ...scenario.PresetOption) (*Spread, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("figures: %d seeds", seeds)
	}
	var cfgs []scenario.Config
	var facts func(i int, to *Result, res *scenario.Result)
	out := &Spread{Seeds: seeds}
	switch fig {
	case 11:
		for seed := 1; seed <= seeds; seed++ {
			cfg, err := figure11Config(kmax, scale, opts)
			if err != nil {
				return nil, err
			}
			cfg.StartSeed = int64(seed)
			cfgs = append(cfgs, cfg)
		}
		out.Name = figure11Name(kmax)
		facts = func(_ int, to *Result, res *scenario.Result) { figure11Facts(to, res) }
	case 12, 13:
		var cells []TableCell
		var err error
		if cfgs, cells, err = seedConfigs(nil, seeds, scale, opts); err != nil {
			return nil, err
		}
		out.Name = map[int]string{12: figure12Name, 13: figure13Name}[fig]
		facts = func(i int, to *Result, res *scenario.Result) {
			switch c := cells[i%len(cells)]; {
			case fig == 12 && c.Test == "T1" && c.Kmax <= 4:
				figure12Facts(to, c.Kmax, res)
			case fig == 13 && c.Test == "T2" && c.Kmax == 4:
				figure13Facts(to, res)
			}
		}
	default:
		return nil, fmt.Errorf("figures: no seeded Figure %d (have 11, 12, 13)", fig)
	}
	got := make([]Result, len(cfgs))
	if err := scenario.RunEach(cfgs, workers, func(i int, res *scenario.Result) { facts(i, &got[i], res) }); err != nil {
		return nil, err
	}
	// A seed's facts are its configs', in config order.
	bySeed := make([][]Fact, seeds)
	per := len(cfgs) / seeds
	for i := range got {
		bySeed[i/per] = append(bySeed[i/per], got[i].Summary...)
	}
	for k, f := range bySeed[0] {
		v := make([]float64, seeds)
		for s := range bySeed {
			v[s] = bySeed[s][k].Value
		}
		out.Facts = append(out.Facts, FactSpread{Key: f.Key, Note: f.Note, Deciles: deciles(v)})
	}
	return out, nil
}

// Render writes the spread as a figure summary, each fact as "median
// [p10, p90]".
func (s *Spread) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s, median [p10, p90] over %d start seeds\n", s.Name, s.Seeds); err != nil {
		return err
	}
	for _, f := range s.Facts {
		d := f.Deciles
		if _, err := fmt.Fprintf(w, "# %-28s %12.3f [%.3f, %.3f]   %s\n", f.Key, d[1], d[0], d[2], f.Note); err != nil {
			return err
		}
	}
	return nil
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
	byKey := map[string]TableCell{}
	var kmaxes []int
	for _, c := range cells {
		byKey[fmt.Sprintf("%s/%d", c.Test, c.Kmax)] = c
		kmaxes = append(kmaxes, c.Kmax)
	}
	table := func(title string, f func(TableCell) string) error {
		return renderGrid(w, title, kmaxes, 13, func(key string) string {
			c, ok := byKey[key]
			switch {
			case !ok:
				return "-"
			case c.Drops == 0:
				return "no-drops"
			}
			return f(c)
		})
	}
	if err := table("Table 1: buffering efficiency e (paper: 96-99.99%)", func(c TableCell) string {
		return fmt.Sprintf("%.2f%%", 100*c.AvgEfficiency)
	}); err != nil {
		return err
	}
	return table("Table 2: drops due to poor buffer distribution (paper: 0-11%)", func(c TableCell) string {
		return fmt.Sprintf("%.1f%%", c.PoorDistPct)
	})
}

// RenderSpreads writes Tables 1 and 2 from TablesSeeds cells, each cell
// as "median [p10, p90]" in percent. A cell with seeds that dropped no
// layer gives their count after a slash ("/3": three seeds left out).
func RenderSpreads(w io.Writer, cells []CellSpread) error {
	byKey := map[string]CellSpread{}
	var kmaxes []int
	seeds := 0
	for _, c := range cells {
		byKey[fmt.Sprintf("%s/%d", c.Test, c.Kmax)] = c
		kmaxes = append(kmaxes, c.Kmax)
		seeds = c.Seeds
	}
	table := func(title, format string, f func(CellSpread) [3]float64) error {
		return renderGrid(w, fmt.Sprintf(title, seeds), kmaxes, 22, func(key string) string {
			c, ok := byKey[key]
			switch {
			case !ok:
				return "-"
			case c.Dropped == 0:
				return "no-drops"
			}
			d := f(c)
			cell := fmt.Sprintf(format, d[1], d[0], d[2])
			if c.Dropped < c.Seeds {
				cell += fmt.Sprintf("/%d", c.Seeds-c.Dropped)
			}
			return cell
		})
	}
	if err := table("Table 1: buffering efficiency e %%, median [p10, p90] over %d start seeds (paper: 96-99.99%%)",
		"%.2f [%.2f, %.2f]", func(c CellSpread) [3]float64 { return c.Eff }); err != nil {
		return err
	}
	return table("Table 2: drops due to poor buffer distribution %%, median [p10, p90] over %d start seeds (paper: 0-11%%)",
		"%.1f [%.1f, %.1f]", func(c CellSpread) [3]float64 { return c.PoorDist })
}

// renderGrid writes one table: title, a header of the distinct kmaxes
// in ascending order, then a row each for T1 and T2 whose cells are
// cell("T1/2") and so on, in columns width wide.
func renderGrid(w io.Writer, title string, kmaxes []int, width int, cell func(key string) string) error {
	kmaxes = slices.Clone(kmaxes)
	slices.Sort(kmaxes)
	kmaxes = slices.Compact(kmaxes)
	if _, err := fmt.Fprintf(w, "%s\n      ", title); err != nil {
		return err
	}
	for _, k := range kmaxes {
		if _, err := fmt.Fprintf(w, "%-*s", width, fmt.Sprintf("Kmax=%d", k)); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	for _, test := range []string{"T1", "T2"} {
		if _, err := fmt.Fprintf(w, "%-6s", test); err != nil {
			return err
		}
		for _, k := range kmaxes {
			if _, err := fmt.Fprintf(w, "%-*s", width, cell(fmt.Sprintf("%s/%d", test, k))); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// TransportKinds are the backends the A/B sweep compares, in sweep
// order: the paper's RAP reference, the delay-based (GCC-style)
// controller, and the loss-greedy baseline.
func TransportKinds() []transport.Kind {
	return []transport.Kind{transport.KindRAP, transport.KindDelay, transport.KindGreedy}
}

// TransportSweep runs the transport A/B comparison: for each backend it
// runs the paper's Figure 11 scenario (T1, Kmax=2, first 40 seconds)
// and the Fleet preset, and emits a comparative result — per-backend QA
// rate series plus matched facts (rate, layers, stalls, losses,
// backoffs, fleet goodput split, TCP fairness). The question the sweep
// answers is the ROADMAP's: does QA's buffer-distribution math survive
// a controller that backs off before loss (delay), and what does a
// standing-queue adversary (greedy) do to it? All 2×3 simulations are
// independent and execute concurrently on workers goroutines (<= 0
// means one per CPU).
func TransportSweep(scale float64, workers int) (*Result, error) {
	kinds := TransportKinds()
	var cfgs []scenario.Config
	for _, k := range kinds {
		t1, err := figure11Config(2, scale, []scenario.PresetOption{scenario.WithTransport(k)})
		if err != nil {
			return nil, err
		}
		fleet, err := preset("Fleet", 2, scale, []scenario.PresetOption{scenario.WithTransport(k)})
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, instrumented(t1), instrumented(fleet))
	}
	results, err := scenario.RunAll(cfgs, workers)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Name:   "Transport A/B: rap vs delay vs greedy (Fig 11 scenario + Fleet)",
		Series: trace.NewSet(),
	}
	for _, res := range results {
		out.Reports = append(out.Reports, res.Report())
	}
	for i, k := range kinds {
		t1, fleet := results[2*i], results[2*i+1]
		rate := t1.Series.Get("qa.rate")
		layers := t1.Series.Get("qa.layers")
		out.Series.Add(rate.Alias(fmt.Sprintf("%s.qa.rate", k)))
		out.Series.Add(layers.Alias(fmt.Sprintf("%s.qa.layers", k)))
		ctr := t1.QASrc.Tr.Counters()
		out.fact(fmt.Sprintf("%s.avg_rate", k), rate.AvgBetween(10, 40), "QA transmission rate, Fig 11 scenario (B/s)")
		out.fact(fmt.Sprintf("%s.avg_layers", k), layers.AvgBetween(10, 40), "active layers")
		out.fact(fmt.Sprintf("%s.stall_sec", k), t1.StallSec, "playback stalls (s)")
		out.fact(fmt.Sprintf("%s.backoffs", k), float64(ctr.Backoffs), "rate decreases (loss or overuse)")
		out.fact(fmt.Sprintf("%s.lost_pkts", k), float64(ctr.Lost), "QA data packets inferred lost")
		if t1.Stats.Drops > 0 {
			out.fact(fmt.Sprintf("%s.efficiency", k), 100*t1.Stats.AvgEfficiency, "buffering efficiency over drops (%)")
			out.fact(fmt.Sprintf("%s.poor_dist_pct", k), t1.Stats.PoorDistPct, "drops from poor buffer distribution (%)")
		}
		fs := fleet.Report().Fleet
		out.fact(fmt.Sprintf("%s.fleet_qa_goodput", k), fs.QAGoodputBps, "Fleet QA goodput (B/s)")
		out.fact(fmt.Sprintf("%s.fleet_tcp_goodput", k), fs.TCPGoodputBps, "Fleet TCP goodput (B/s)")
		out.fact(fmt.Sprintf("%s.fleet_jain_tcp", k), fs.JainFairnessTCP, "Jain fairness across Fleet TCP flows")
		out.Run = t1
	}
	return out, nil
}
