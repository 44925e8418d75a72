package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"qav/internal/core"
	"qav/internal/transport"
)

func TestSingleRAPSawtooth(t *testing.T) {
	cfg := MustPreset("SingleRAP")
	res := runChecked(t, cfg)
	rate := res.Series.Get("rap0.rate")
	if rate == nil || rate.Len() == 0 {
		t.Fatal("no rate series")
	}
	// The single flow must hunt around the bottleneck bandwidth: average
	// in the second half within [50%, 145%] of capacity (rate-based AIMD
	// overshoots while the loss feedback is in flight, exactly like the
	// peaks in the paper's Fig 1), with multiple backoffs.
	avg := rate.AvgBetween(cfg.Duration/2, cfg.Duration)
	if avg < 0.5*cfg.BottleneckRate || avg > 1.45*cfg.BottleneckRate {
		t.Fatalf("avg rate %.0f not around bottleneck %.0f", avg, cfg.BottleneckRate)
	}
	if res.RAPSrcs[0].Tr.Counters().Backoffs < 5 {
		t.Fatalf("only %d backoffs in 40s; expected a sawtooth", res.RAPSrcs[0].Tr.Counters().Backoffs)
	}
	// Utilization: the flow should not collapse.
	if res.RAPSrcs[0].RecvBytes < int64(0.4*cfg.BottleneckRate*cfg.Duration) {
		t.Fatalf("goodput %d too low", res.RAPSrcs[0].RecvBytes)
	}
}

func TestSingleQAPlaysAndBuffers(t *testing.T) {
	cfg := MustPreset("SingleQA", WithKmax(2))
	res := runChecked(t, cfg)
	if res.QASrc == nil {
		t.Fatal("no QA source")
	}
	if res.PlayedSec < cfg.Duration/2 {
		t.Fatalf("played only %.1fs of %.0fs", res.PlayedSec, cfg.Duration)
	}
	// ~12 KB/s capacity over 3 KB/s layers: should reach at least 2 layers.
	maxLayers, _ := res.Series.Get("qa.layers").Max()
	if maxLayers < 2 {
		t.Fatalf("never exceeded %v layers", maxLayers)
	}
	// Buffering happens and is base-layer-heavy on average.
	b0 := res.Series.Get("qa.buf.l0").Avg()
	b2 := res.Series.Get("qa.buf.l2").Avg()
	if b0 <= 0 {
		t.Fatal("base layer never buffered")
	}
	if b2 > b0 {
		t.Fatalf("higher layer buffered more on average: l0=%.0f l2=%.0f", b0, b2)
	}
}

func TestT1QAFlowHoldsLayersWithoutStalling(t *testing.T) {
	cfg := MustPreset("T1", WithKmax(2))
	cfg.Duration = 60
	res := runChecked(t, cfg)
	maxLayers, _ := res.Series.Get("qa.layers").Max()
	if maxLayers < 2 {
		t.Fatalf("QA flow never got past %v layers at fair share 4C", maxLayers)
	}
	// Fair sharing: QA goodput within a factor 3 of the fair share.
	fair := cfg.BottleneckRate / float64(1+cfg.NumRAP+cfg.NumTCP)
	avgRate := res.Series.Get("qa.rate").AvgBetween(20, cfg.Duration)
	if avgRate < fair/3 || avgRate > 3*fair {
		t.Fatalf("QA avg rate %.0f vs fair share %.0f: unfair by >3x", avgRate, fair)
	}
}

func TestT1EfficiencyHigh(t *testing.T) {
	cfg := MustPreset("T1", WithKmax(2))
	cfg.Duration = 120
	res := runChecked(t, cfg)
	if res.Stats.Drops == 0 {
		t.Skip("no drops in this run; efficiency undefined")
	}
	// Paper Table 1: ~99%+ efficiency. Allow slack for our substrate.
	if res.Stats.AvgEfficiency < 0.90 {
		t.Fatalf("buffering efficiency %.3f < 0.90 (paper: ~0.99)", res.Stats.AvgEfficiency)
	}
}

func TestT2CBRBurstForcesAndRecovers(t *testing.T) {
	cfg := MustPreset("T2", WithKmax(4))
	res := runChecked(t, cfg)
	layers := res.Series.Get("qa.layers")
	before := layers.AvgBetween(15, 30)
	during := layers.AvgBetween(40, 60)
	after := layers.AvgBetween(75, 90)
	if !(during < before) {
		t.Fatalf("CBR burst did not reduce quality: before=%.2f during=%.2f", before, during)
	}
	if !(after > during) {
		t.Fatalf("quality did not recover after burst: during=%.2f after=%.2f", during, after)
	}
}

func TestKmaxSmoothingReducesQualityChanges(t *testing.T) {
	changes := map[int]int{}
	buftot := map[int]float64{}
	for _, kmax := range []int{2, 8} {
		// The paper-scale variant (C = 10 KB/s): buffer requirements are
		// substantial there, so Kmax has a visible effect.
		cfg := MustPreset("T1", WithKmax(kmax), WithScale(8))
		cfg.Duration = 90
		res := runChecked(t, cfg)
		changes[kmax] = res.Stats.Adds + res.Stats.Drops
		buftot[kmax] = res.Series.Get("qa.buftotal").AvgBetween(30, cfg.Duration)
	}
	// Fig 12: higher Kmax buffers more and changes quality less (allow
	// equality; both runs share the same congestion pattern scale).
	if buftot[8] <= buftot[2] {
		t.Fatalf("Kmax=8 buffered %.0f <= Kmax=2's %.0f", buftot[8], buftot[2])
	}
	if changes[8] > changes[2] {
		t.Fatalf("Kmax=8 changed quality more often (%d) than Kmax=2 (%d)", changes[8], changes[2])
	}
}

func TestRunRejectsEmptyConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// NaN passes every "<= 0" check, so without an explicit test a NaN
// bandwidth reached sim.NewDumbbell as a negative queue (a panic) and a
// NaN C ran a controller that never started playback. A negative delay
// likewise panicked in sim.NewLink, inside a RunAll worker.
func TestNormalizeRejectsNonFinite(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"BottleneckRate NaN":   func(c *Config) { c.BottleneckRate = math.NaN() },
		"BottleneckRate +Inf":  func(c *Config) { c.BottleneckRate = math.Inf(1) },
		"LinkDelay NaN":        func(c *Config) { c.LinkDelay = math.NaN() },
		"AccessDelay -Inf":     func(c *Config) { c.AccessDelay = math.Inf(-1) },
		"Duration NaN":         func(c *Config) { c.Duration = math.NaN() },
		"SampleInterval NaN":   func(c *Config) { c.SampleInterval = math.NaN() },
		"CBRRate NaN":          func(c *Config) { c.CBRRate = math.NaN() },
		"CBRStop +Inf":         func(c *Config) { c.CBRStop = math.Inf(1) },
		"QA.C NaN":             func(c *Config) { c.QA.C = math.NaN() },
		"QA.StartupSec NaN":    func(c *Config) { c.QA.StartupSec = math.NaN() },
		"QueueBytes zero":      func(c *Config) { c.QueueBytes = 0 },
		"LinkDelay negative":   func(c *Config) { c.LinkDelay = -0.01 },
		"AccessDelay negative": func(c *Config) { c.AccessDelay = -0.005 },
	} {
		cfg := MustPreset("T1")
		mut(&cfg)
		if err := cfg.Normalize(); err == nil {
			t.Errorf("%s: normalized without error", name)
		}
	}
}

// TestNormalizeRejectsNoTraffic is the zero-flow regression: before the
// guard, a config with every class at zero slipped through Normalize
// and the fair-share split divided the bottleneck rate by the zero flow
// total, seeding every RAP config with +Inf.
func TestNormalizeRejectsNoTraffic(t *testing.T) {
	cfg := Config{BottleneckRate: 100_000, Duration: 1, QueueBytes: 10_000}
	if err := cfg.Normalize(); err == nil {
		t.Error("config with no traffic sources normalized without error")
	}
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted a config with no traffic sources")
	}
	// CBR alone is a valid population (the fair-share split's QA term
	// floors at 1, so no division by zero).
	cfg.CBRRate = 10_000
	if err := cfg.Normalize(); err != nil {
		t.Errorf("CBR-only config rejected: %v", err)
	}
}

// TestNormalizeRejectsNegativeCounts: a negative class count could
// cancel the fair-share denominator exactly.
func TestNormalizeRejectsNegativeCounts(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.NumTCP = -1 },
		func(c *Config) { c.NumRAP = -2 },
		func(c *Config) { c.NumQA = -1 },
	} {
		cfg := Config{BottleneckRate: 100_000, Duration: 1, QueueBytes: 10_000, NumTCP: 2}
		mut(&cfg)
		if err := cfg.Normalize(); err == nil {
			t.Errorf("negative flow count normalized without error: %+v", cfg)
		}
	}
}

// A non-positive size or duration is named with its value, not shown as
// the whole config.
func TestNormalizeNamesNonPositiveField(t *testing.T) {
	for want, mut := range map[string]func(*Config){
		"Duration must be positive, got 0":        func(c *Config) { c.Duration = 0 },
		"BottleneckRate must be positive, got -1": func(c *Config) { c.BottleneckRate = -1 },
		"QueueBytes must be positive, got 0":      func(c *Config) { c.QueueBytes = 0 },
	} {
		cfg := MustPreset("T1")
		mut(&cfg)
		if err := cfg.Normalize(); err == nil || err.Error() != `scenario: config "T1(Kmax=2)": `+want {
			t.Errorf("got error %v, want %q", err, want)
		}
	}
}

// The report's config is the effective one: QA defaults the caller left
// at zero are filled by the same method the controller applies.
func TestNormalizeFillsQADefaults(t *testing.T) {
	cfg := MustPreset("T1")
	cfg.QA = core.Params{C: cfg.QA.C}
	cfg.Duration = 5
	res := runChecked(t, cfg)
	if got := res.Report().Config.QA; got != res.QASrc.Ctrl.P {
		t.Fatalf("report records QA %+v, the controller ran %+v", got, res.QASrc.Ctrl.P)
	}
	if got := res.Cfg.QA; got.Kmax != 2 || got.MaxLayers != 8 || got.StartupSec != 1 {
		t.Fatalf("defaults not filled: %+v", got)
	}
}

func TestT1FairnessAcrossRAPFlows(t *testing.T) {
	cfg := MustPreset("T1", WithKmax(2))
	cfg.Duration = 60
	res := runChecked(t, cfg)
	// Jain's fairness index across the 9 plain RAP flows.
	var sum, sumsq float64
	for _, r := range res.RAPSrcs {
		g := float64(r.RecvBytes)
		sum += g
		sumsq += g * g
	}
	n := float64(len(res.RAPSrcs))
	jain := sum * sum / (n * sumsq)
	if math.IsNaN(jain) || jain < 0.7 {
		t.Fatalf("RAP flows unfair: Jain index %.3f", jain)
	}
}

func TestREDVariantRuns(t *testing.T) {
	cfg := MustPreset("T1", WithKmax(2))
	cfg.Duration = 30
	cfg.UseRED = true
	cfg.REDSeed = 7
	res := runChecked(t, cfg)
	if hi, ok := res.Series.Get("qa.layers").Max(); !ok || hi < 2 {
		t.Fatal("QA flow never got layers under RED")
	}
}

func TestFineGrainVariantRuns(t *testing.T) {
	cfg := MustPreset("T1", WithKmax(2))
	cfg.Duration = 30
	cfg.FineGrainRAP = true
	res := runChecked(t, cfg)
	if res.QASrc.Tr.(*transport.RAP).FineGrainFactor() <= 0 {
		t.Fatal("fine grain factor not live")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (float64, int) {
		cfg := MustPreset("T1", WithKmax(2))
		cfg.Duration = 20
		res := runChecked(t, cfg)
		return res.Series.Get("qa.rate").Avg(), res.Stats.Adds + res.Stats.Drops
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 || c1 != c2 {
		t.Fatalf("simulation not deterministic: (%v,%d) vs (%v,%d)", r1, c1, r2, c2)
	}
}

// TestAttributionLivesInTheWindow: the driver credits exactly the ACKs
// the transport calls fresh, and keeps no attribution beside the
// transport's window — every packet it gave a layer is credited, lost or
// still outstanding. (The seq -> layer map this replaced still held
// 338, 285, 387 and 6,392 lost sequences after these four runs.)
func TestAttributionLivesInTheWindow(t *testing.T) {
	for _, name := range []string{"T1", "T2", "SingleQA", "Fleet"} {
		res := runChecked(t, MustPreset(name))
		if name == "Fleet" && len(res.QASrcs) != 50 {
			t.Fatalf("Fleet: %d QA flows, want 50", len(res.QASrcs))
		}
		for i, q := range res.QASrcs {
			var attributed, credited int64
			for l := range q.SentByLayer {
				attributed += q.SentByLayer[l] / int64(q.PacketSize)
				credited += q.DeliveredByLayer[l] / int64(q.PacketSize)
			}
			c := q.Tr.Counters()
			if c.Lost == 0 {
				t.Fatalf("%s QA flow %d lost nothing: the run does not exercise the loss path", name, i)
			}
			if attributed != c.Sent || credited != c.Acked {
				t.Fatalf("%s QA flow %d: attributed %d of %d sent, credited %d of %d fresh ACKs", name, i, attributed, c.Sent, credited, c.Acked)
			}
			if held := attributed - credited - c.Lost; held != int64(q.Tr.Outstanding()) {
				t.Fatalf("%s QA flow %d: %d sequences attributed and unresolved, %d outstanding", name, i, held, q.Tr.Outstanding())
			}
		}
	}
}

// A start seed jitters every flow's start, the same way each time; seed
// 0 leaves the run and its report as the preset has them.
func TestStartSeed(t *testing.T) {
	report := func(seed int64) string {
		cfg := MustPreset("T1", WithScale(8))
		cfg.StartSeed = seed
		b, err := json.Marshal(runChecked(t, cfg).Report())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	zero, one := report(0), report(1)
	if strings.Contains(zero, "StartSeed") || !strings.Contains(one, `"StartSeed":1`) {
		t.Error("the report names StartSeed at seed 0, or not at seed 1")
	}
	if one != report(1) {
		t.Error("seed 1 runs differ")
	}
	if strings.Replace(report(2), `"StartSeed":2`, `"StartSeed":1`, 1) == one {
		t.Error("seeds 1 and 2 run the same")
	}
}

// TestStaggerExactAtScale: the integer-millisecond wrap must make
// offsets that coincide mathematically coincide bitwise at any
// population size, while indices below the wrap keep the historical
// float values bit for bit (the paper presets' byte-identity).
func TestStaggerExactAtScale(t *testing.T) {
	steps := []float64{0.097, 0.111, 0.087}
	for _, step := range steps {
		stepMilli := int64(math.Round(step * 1000))
		// Below the wrap: the classic linear offset, bitwise.
		for i := 0; int64(i)*stepMilli < 1000; i++ {
			if got, want := stagger(i, step), float64(i)*step; got != want {
				t.Fatalf("stagger(%d, %v) = %v, want the historical %v", i, step, got, want)
			}
		}
		// At scale: exact wrap, no accumulated float drift. Offsets one
		// full period apart (1000 steps for these co-prime step sizes)
		// must be bitwise equal — the property math.Mod lost by flow
		// ~10^4, where ulp error in float64(i)*step crossed the rounding
		// boundary of the remainder.
		for _, i := range []int64{11, 500, 10_007, 123_456} {
			a := stagger(int(i+1000), step)
			b := stagger(int(i+2000), step)
			if a != b {
				t.Fatalf("stagger period broken at step %v: i=%d gives %v, i=%d gives %v",
					step, i+1000, a, i+2000, b)
			}
			want := float64((i+1000)*stepMilli%1000) / 1000
			if a != want {
				t.Fatalf("stagger(%d, %v) = %v, want exact %v", i+1000, step, a, want)
			}
		}
		// The offset stays inside the one-second ramp window.
		for _, i := range []int{0, 999, 10_000, 1_000_000} {
			if v := stagger(i, step); v < 0 || v >= 1 {
				t.Fatalf("stagger(%d, %v) = %v outside [0, 1)", i, step, v)
			}
		}
	}
}
