package scenario

import (
	"bytes"
	"testing"

	"qav/internal/core"
	"qav/internal/metrics"
	"qav/internal/trace"
)

func TestFleetPresetShape(t *testing.T) {
	cfg := MustPreset("Fleet", WithFlows(10))
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumQA != 5 || cfg.NumTCP != 5 || cfg.NumRAP != 0 {
		t.Fatalf("Fleet(10) population wrong: %d QA, %d TCP, %d RAP", cfg.NumQA, cfg.NumTCP, cfg.NumRAP)
	}
	if cfg.MaxTraceFlows == 0 {
		t.Error("Fleet preset must select fleet (capped) sampling")
	}
	// The per-flow fair share must not depend on the population.
	big := MustPreset("Fleet", WithFlows(1000))
	if perFlow, perFlowBig := cfg.BottleneckRate/10, big.BottleneckRate/1000; perFlow != perFlowBig {
		t.Errorf("fair share drifts with flow count: %v vs %v", perFlow, perFlowBig)
	}
	if _, err := Preset("Fleet", WithFlows(-1)); err == nil {
		t.Error("negative flow count accepted")
	}
}

// A fleet run must cap per-flow series at MaxTraceFlows per class and
// always emit the fleet-wide aggregates, so trace memory is O(1) in the
// population.
func TestFleetSamplingCappedWithAggregates(t *testing.T) {
	cfg := MustPreset("Fleet", WithFlows(12))
	cfg.Duration = 8
	res := runChecked(t, cfg)
	for _, name := range []string{
		"qa.rate", "qa1.rate", "qa3.rate", "tcp0.rate", "tcp3.rate",
		"fleet.qa.rate", "fleet.tcp.goodput", "fleet.jain.tcp",
	} {
		if res.Series.Get(name) == nil {
			t.Errorf("series %q missing from fleet run", name)
		}
	}
	// 12 flows = 6 QA + 6 TCP, cap 4: qa.rate..qa3.rate, tcp0..tcp3.
	for _, name := range []string{"qa4.rate", "qa5.rate", "tcp4.rate", "tcp5.rate"} {
		if res.Series.Get(name) != nil {
			t.Errorf("series %q exceeds the MaxTraceFlows cap", name)
		}
	}
	if jain := res.Series.Get("fleet.jain.tcp").Last(); jain <= 0 || jain > 1 {
		t.Errorf("fleet.jain.tcp out of (0,1]: %v", jain)
	}
	agg := res.Series.Get("fleet.tcp.goodput").Avg()
	var direct int64
	for _, src := range res.TCPSrcs {
		direct += src.GoodputBytes()
	}
	// The time-averaged aggregate-goodput series must agree with the
	// cumulative counters (the first sample at t=0 reads 0, hence ~1
	// sample of slack on an 8 s run).
	want := float64(direct) / cfg.Duration
	if agg < want*0.9 || agg > want*1.1 {
		t.Errorf("fleet.tcp.goodput avg %v, want ~%v", agg, want)
	}
	fs := res.Report().Fleet
	if fs.Flows != 12 || fs.QAFlows != 6 || fs.TCPFlows != 6 {
		t.Errorf("fleet report counts wrong: %+v", fs)
	}
	if fs.TCPGoodputBps != want {
		t.Errorf("report TCP goodput %v, want %v", fs.TCPGoodputBps, want)
	}
}

// Fleet runs must stay deterministic at population scale: the report is
// byte-identical across RunAll worker counts.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	runWith := func(workers int) []byte {
		cfgs := make([]Config, 2)
		for i := range cfgs {
			cfgs[i] = MustPreset("Fleet", WithFlows(16))
			cfgs[i].Duration = 6
			cfgs[i].Metrics = metrics.NewRegistry()
		}
		results := runAllChecked(t, cfgs, workers)
		return marshalReports(t, results)
	}
	want := runWith(1)
	for _, workers := range []int{2, 4} {
		if got := runWith(workers); !bytes.Equal(want, got) {
			t.Fatalf("fleet report differs with %d workers", workers)
		}
	}
}

// Every series the sampler records is on its ticker's clock and
// pre-sized from Duration/SampleInterval: all of a run's series share
// one time column, and len(T) == len(V). Each series' values are still
// at exactly the reserved capacity, which trace.Set.OnClock takes from
// its clock's: any append regrowth, or a clock reserved short, would
// have left another. The followers leg puts each follower's qa.* trace
// on the lead's clock.
func TestSamplerPreSizesAllSeries(t *testing.T) {
	for _, mode := range []string{"legacy", "fleet", "followers"} {
		t.Run(mode, func(t *testing.T) {
			cfg := MustPreset("Fleet", WithFlows(8))
			if mode != "fleet" {
				cfg = MustPreset("T1")
			}
			cfg.Duration = 10
			var results []*Result
			if mode == "followers" {
				cfgs := []Config{cfg, cfg}
				cfgs[1].QA.Kmax = 3
				results = eachChecked(t, cfgs, 1)
			} else {
				results = []*Result{runChecked(t, cfg)}
			}
			reserve := int(cfg.Duration/cfg.SampleInterval) + 2
			var column *float64 // the ticker's clock's
			for _, res := range results {
				for _, name := range res.Series.Names() {
					s := res.Series.Get(name)
					if len(s.T) != len(s.V) || s.Len() == 0 || s.Len() > reserve {
						t.Fatalf("series %q: %d times, %d values, reserved %d", name, len(s.T), len(s.V), reserve)
					}
					if cap(s.V) != reserve {
						t.Errorf("series %q regrew: cap V=%d, reserved %d", name, cap(s.V), reserve)
					}
					if column == nil {
						column = &s.T[0]
					} else if &s.T[0] != column {
						t.Errorf("series %q is off the ticker's clock's column", name)
					}
				}
			}
		})
	}
}

// Sampling a QA trace reads the controller's per-layer state in place:
// with its series pre-sized, a sample allocates nothing.
func TestQATraceSampleAllocatesNothing(t *testing.T) {
	cfg := MustPreset("T1")
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	c, err := core.NewController(cfg.QA)
	if err != nil {
		t.Fatal(err)
	}
	clock := trace.NewClock(1000)
	qt := newQATrace(on(trace.NewSet(), clock), &cfg, c, make([]int64, cfg.QA.MaxLayers), make([]int64, cfg.QA.MaxLayers))
	now := 0.0
	if allocs := testing.AllocsPerRun(100, func() {
		clock.Add(now)
		qt.sample(now, 50_000)
		now += cfg.SampleInterval
	}); allocs != 0 {
		t.Fatalf("%v allocations per sample", allocs)
	}
}

// The Fleet preset must actually run at scale; a smoke check at a
// moderate population that every class makes progress.
func TestFleetRunsAtModeratePopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("population smoke test")
	}
	cfg := MustPreset("Fleet", WithFlows(100))
	cfg.Duration = 5
	res := runChecked(t, cfg)
	fs := res.Report().Fleet
	if fs.Flows != 100 {
		t.Fatalf("expected 100 flows, got %+v", fs)
	}
	if fs.QAGoodputBps <= 0 || fs.TCPGoodputBps <= 0 {
		t.Fatalf("a flow class made no progress: %+v", fs)
	}
	if fs.JainFairnessTCP < 0.5 {
		t.Errorf("TCP fairness collapsed at 100 flows: %v", fs.JainFairnessTCP)
	}
	for i := 0; i < len(res.QASrcs); i++ {
		if res.QASrcs[i].RecvBytes == 0 {
			t.Fatalf("QA flow %d delivered nothing", i)
		}
	}
}
