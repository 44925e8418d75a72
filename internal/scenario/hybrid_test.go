package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"qav/internal/metrics"
)

// hybridFleet builds a Fleet whose population is pkt packet-level flows
// (half QA, half TCP) on top of a fluid background of total-pkt flows.
func hybridFleet(t *testing.T, total, pkt int) Config {
	t.Helper()
	cfg, err := Preset("Fleet", WithFlows(pkt), WithFluidFlows(total-pkt))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestHybridConfigValidation(t *testing.T) {
	cfg := Config{BottleneckRate: 100_000, Duration: 1, QueueBytes: 10_000, FluidTCP: -1}
	if err := cfg.Normalize(); err == nil {
		t.Error("negative FluidTCP normalized without error")
	}
	cfg = Config{BottleneckRate: 100_000, Duration: 1, QueueBytes: 10_000, FluidRAP: -3}
	if err := cfg.Normalize(); err == nil {
		t.Error("negative FluidRAP normalized without error")
	}
	if _, err := Preset("Fleet", WithFluidFlows(-1)); err == nil {
		t.Error("negative fluid flow count accepted by the Fleet preset")
	}

	// A fluid background is a traffic source: fluid-only configs are
	// valid.
	cfg = Config{BottleneckRate: 100_000, Duration: 1, QueueBytes: 10_000, FluidTCP: 50}
	if err := cfg.Normalize(); err != nil {
		t.Fatalf("fluid-only config rejected: %v", err)
	}

	// WithFluidFlows(0) must leave the Fleet preset byte-identical to a
	// plain one — name, rate, everything.
	plain := MustPreset("Fleet", WithFlows(10))
	zero := MustPreset("Fleet", WithFlows(10), WithFluidFlows(0))
	if fmt.Sprintf("%+v", plain) != fmt.Sprintf("%+v", zero) {
		t.Errorf("WithFluidFlows(0) changed the config:\n%+v\nvs\n%+v", plain, zero)
	}
}

func TestHybridFluidOnlyRun(t *testing.T) {
	cfg := Config{
		Name:           "fluid-only",
		BottleneckRate: 500_000,
		LinkDelay:      0.010,
		AccessDelay:    0.005,
		QueueBytes:     30_000,
		FluidTCP:       40,
		FluidRAP:       40,
		Duration:       10,
		SampleInterval: 0.1,
		Metrics:        metrics.NewRegistry(),
	}
	res := runChecked(t, cfg)
	if res.Fluid == nil {
		t.Fatal("hybrid run produced no fluid aggregate")
	}
	rep := res.Report()
	if rep.Fluid == nil {
		t.Fatal("hybrid report carries no fluid stats")
	}
	if rep.Fluid.TCPFlows != 40 || rep.Fluid.RAPFlows != 40 {
		t.Errorf("fluid populations %d/%d, want 40/40", rep.Fluid.TCPFlows, rep.Fluid.RAPFlows)
	}
	// Alone on the link, the aggregate should fill most of it.
	if rep.Fluid.GoodputBps < 0.8*cfg.BottleneckRate {
		t.Errorf("fluid-only goodput %.0f, want >= 80%% of %.0f", rep.Fluid.GoodputBps, cfg.BottleneckRate)
	}
	if rep.Fluid.Backoffs == 0 || rep.Fluid.DroppedBytes <= 0 {
		t.Errorf("saturating aggregate saw no congestion: %+v", rep.Fluid)
	}
	// The trace carries the aggregate's rate, and the metric layer its
	// counters.
	if s := res.Series.Get("fluid.rate"); s == nil || s.Len() == 0 {
		t.Error("fluid.rate series missing from hybrid run")
	}
	snap := res.Metrics.Snapshot()
	for _, name := range []string{"fluid.offered.bytes", "fluid.served.bytes", "fluid.dropped.bytes", "fluid.backoffs"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from hybrid run", name)
		}
	}
	for _, name := range []string{"fluid.rate", "fluid.backlog", "fluid.reserved"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %q missing from hybrid run", name)
		}
	}
	// The report marshals, and its top level gains exactly the "fluid"
	// key relative to packet-level runs.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["fluid"]; !ok {
		t.Error("hybrid report JSON missing the fluid key")
	}
}

// Pure packet-level reports must not grow a fluid key or fluid metrics:
// their byte-stability is the regression oracle for everything else.
func TestPurePacketReportHasNoFluidKey(t *testing.T) {
	cfg := MustPreset("Fleet", WithFlows(8))
	cfg.Duration = 2
	cfg.Metrics = metrics.NewRegistry()
	res := runChecked(t, cfg)
	var buf bytes.Buffer
	if err := res.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["fluid"]; ok {
		t.Error("pure packet report grew a fluid key")
	}
	snap := res.Metrics.Snapshot()
	for name := range snap.Counters {
		if len(name) >= 6 && name[:6] == "fluid." {
			t.Errorf("pure packet run registered %q", name)
		}
	}
	if res.Series.Get("fluid.rate") != nil {
		t.Error("pure packet run recorded a fluid.rate series")
	}
}

// TestHybridToleranceBands compares hybrid fleets against full
// packet-level references of the same population, queue discipline, and
// per-flow fair share: 100/500/1000 flows, DropTail and RED. The
// fluid abstraction must reproduce the reference's aggregate behavior
// within coarse bands — bottleneck utilization, foreground per-flow
// goodput, and queue occupancy — while simulating only 20 packet flows.
func TestHybridToleranceBands(t *testing.T) {
	populations := []int{100}
	if !testing.Short() {
		populations = append(populations, 500, 1000)
	}
	for _, total := range populations {
		for _, red := range []bool{false, true} {
			name := fmt.Sprintf("%dflows-droptail", total)
			if red {
				name = fmt.Sprintf("%dflows-red", total)
			}
			total, red := total, red
			t.Run(name, func(t *testing.T) {
				const pkt = 20
				const dur = 5.0
				mut := func(c *Config) {
					c.Duration = dur
					if red {
						c.UseRED = true
						c.REDSeed = 11
					}
				}

				// The full packet-level reference.
				ref := MustPreset("Fleet", WithFlows(total))
				mut(&ref)
				refRes := runChecked(t, ref)

				// The hybrid: 20 packet flows, the rest fluid.
				hyb := hybridFleet(t, total, pkt)
				mut(&hyb)
				hybRes := runChecked(t, hyb)

				if hyb.BottleneckRate != ref.BottleneckRate {
					t.Fatalf("hybrid bottleneck %.0f != reference %.0f: the comparison is meaningless",
						hyb.BottleneckRate, ref.BottleneckRate)
				}

				// Bottleneck utilization: packet tx plus fluid service in
				// the hybrid vs packet tx in the reference.
				util := func(res *Result, fluid bool) float64 {
					var bytes float64
					for _, q := range res.QASrcs {
						bytes += float64(q.RecvBytes)
					}
					for _, r := range res.RAPSrcs {
						bytes += float64(r.RecvBytes)
					}
					for _, tc := range res.TCPSrcs {
						bytes += float64(tc.GoodputBytes())
					}
					if fluid && res.Fluid != nil {
						bytes += res.Fluid.ServedBytes
					}
					return bytes / dur / res.Cfg.BottleneckRate
				}
				refUtil := util(refRes, false)
				hybUtil := util(hybRes, true)
				if hybUtil < refUtil-0.15 || hybUtil > 1.01 {
					t.Errorf("hybrid utilization %.3f vs reference %.3f: outside [-0.15, +capacity]",
						hybUtil, refUtil)
				}

				// Foreground per-flow goodput: the hybrid's packet flows
				// must land within a factor band of the reference's
				// per-flow average — the fluid background must squeeze them
				// like real packet cross-traffic would, in both directions.
				perFlow := func(res *Result) float64 {
					fs := res.fleetStats()
					return (fs.QAGoodputBps + fs.RAPGoodputBps + fs.TCPGoodputBps) / float64(fs.Flows)
				}
				refShare := perFlow(refRes)
				hybShare := perFlow(hybRes)
				if hybShare < 0.5*refShare || hybShare > 2.0*refShare {
					t.Errorf("hybrid foreground per-flow goodput %.0f vs reference %.0f: outside the 2x band",
						hybShare, refShare)
				}

				// Queue occupancy: mean total occupancy within a coarse
				// band of the reference's (same buffer size in bytes).
				refQ := refRes.Series.Get("queue.bytes").Avg()
				hybQ := hybRes.Series.Get("queue.bytes").Avg()
				lim := float64(ref.QueueBytes)
				if diff := hybQ - refQ; diff > 0.5*lim || diff < -0.5*lim {
					t.Errorf("hybrid mean queue %.0f vs reference %.0f: differs by more than half the %d buffer",
						hybQ, refQ, ref.QueueBytes)
				}

				// The modeled background actually carried its population's
				// traffic: its goodput is at least half its fair share.
				fluidShare := ref.BottleneckRate * float64(total-pkt) / float64(total)
				if g := hybRes.Report().Fluid.GoodputBps; g < 0.5*fluidShare {
					t.Errorf("fluid goodput %.0f, want >= half its %.0f fair share", g, fluidShare)
				}
			})
		}
	}
}

// TestHybridDeterministicAcrossWorkers: hybrid reports must be
// byte-identical across RunAll worker counts, with metrics attached
// (fluid counters included) and without — the fleet determinism
// guarantee extended to the fluid half.
func TestHybridDeterministicAcrossWorkers(t *testing.T) {
	baseCfg := func(reg *metrics.Registry) Config {
		cfg := hybridFleet(t, 200, 12)
		cfg.Duration = 4
		cfg.Metrics = reg
		return cfg
	}
	runWith := func(workers int, withMetrics bool) []byte {
		var regs [2]*metrics.Registry
		if withMetrics {
			regs = [2]*metrics.Registry{metrics.NewRegistry(), metrics.NewRegistry()}
		}
		cfgs := []Config{baseCfg(regs[0]), baseCfg(regs[1])}
		results := runAllChecked(t, cfgs, workers)
		return marshalReports(t, results)
	}

	want := runWith(1, false)
	for _, workers := range []int{1, 2} {
		if got := runWith(workers, false); !bytes.Equal(want, got) {
			t.Fatalf("hybrid report differs at workers=%d", workers)
		}
	}
	want = runWith(1, true)
	if got := runWith(2, true); !bytes.Equal(want, got) {
		t.Fatal("instrumented hybrid report differs across workers")
	}
}

// TestHybridMillionFlowFleet is the scale target of the hybrid model: a
// million-flow population — 100 packet-level foreground flows riding on
// 999,900 fluid ones — through one bottleneck, in seconds of wall
// clock. Pure packet simulation at this population is ~10^4 times more
// events than the foreground's.
func TestHybridMillionFlowFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow smoke test")
	}
	const total = 1_000_000
	cfg := hybridFleet(t, total, 100)
	cfg.Duration = 5
	cfg.Metrics = metrics.NewRegistry()
	res := runChecked(t, cfg)
	rep := res.Report()
	if rep.Fluid == nil || rep.Fluid.TCPFlows+rep.Fluid.RAPFlows != total-100 {
		t.Fatalf("fluid population wrong: %+v", rep.Fluid)
	}
	// The background must carry its share of a link provisioned for a
	// million flows.
	fluidShare := cfg.BottleneckRate * float64(total-100) / float64(total)
	if rep.Fluid.GoodputBps < 0.5*fluidShare {
		t.Errorf("million-flow fluid goodput %.0f, want >= half of %.0f", rep.Fluid.GoodputBps, fluidShare)
	}
	// The packet foreground still makes progress next to it.
	fs := rep.Fleet
	if fs.QAGoodputBps <= 0 || fs.TCPGoodputBps <= 0 {
		t.Errorf("foreground starved at million-flow scale: %+v", fs)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}
