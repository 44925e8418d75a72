package scenario

import (
	"bytes"
	"testing"

	"qav/internal/metrics"
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
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
		results, err := RunAll(cfgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		return marshalReports(t, results)
	}
	want := runWith(1)
	for _, workers := range []int{2, 4} {
		if got := runWith(workers); !bytes.Equal(want, got) {
			t.Fatalf("fleet report differs with %d workers", workers)
		}
	}
}

// Every series the sampler records is pre-sized from
// Duration/SampleInterval: after a run, each series must still be at
// exactly the reserved capacity — any append regrowth would have left a
// larger one. The sharded leg has a ticker per flow engine and one for
// the bottleneck.
func TestSamplerPreSizesAllSeries(t *testing.T) {
	for _, mode := range []string{"legacy", "fleet", "fleet-sharded"} {
		t.Run(mode, func(t *testing.T) {
			cfg := MustPreset("Fleet", WithFlows(8))
			switch mode {
			case "legacy":
				cfg = MustPreset("T1")
			case "fleet-sharded":
				cfg.Shards = 3
			}
			cfg.Duration = 10
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reserve := int(cfg.Duration/cfg.SampleInterval) + 2
			for _, name := range res.Series.Names() {
				s := res.Series.Get(name)
				if cap(s.T) != reserve || cap(s.V) != reserve {
					t.Errorf("series %q regrew: cap T=%d V=%d, reserved %d",
						name, cap(s.T), cap(s.V), reserve)
				}
				if s.Len() > reserve {
					t.Errorf("series %q has %d samples, more than reserved %d", name, s.Len(), reserve)
				}
			}
		})
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
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
