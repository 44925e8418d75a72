package scenario

import (
	"bytes"
	"math"
	"testing"

	"qav/internal/core"
	"qav/internal/metrics"
	"qav/internal/sim"
	"qav/internal/transport"
)

// diffSharded runs cfg serially, then at each shard count, and requires
// the RunReport JSON and every trace series to match the serial run
// byte for byte / bit for bit. This is the contract the sharded path
// advertises: -shards is purely a wall-clock knob.
func diffSharded(t *testing.T, cfg Config, shards []int) {
	t.Helper()
	serial := cfg
	serial.Shards = 0
	wantRes, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	var wantRep bytes.Buffer
	if err := wantRes.Report().WriteJSON(&wantRep); err != nil {
		t.Fatal(err)
	}
	wantNames := wantRes.Series.Names()

	for _, n := range shards {
		scfg := cfg
		scfg.Shards = n
		gotRes, err := Run(scfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		var gotRep bytes.Buffer
		if err := gotRes.Report().WriteJSON(&gotRep); err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if !bytes.Equal(gotRep.Bytes(), wantRep.Bytes()) {
			t.Errorf("shards=%d: RunReport differs from serial\nserial: %s\nshards: %s",
				n, wantRep.Bytes(), gotRep.Bytes())
		}
		gotNames := gotRes.Series.Names()
		if len(gotNames) != len(wantNames) {
			t.Fatalf("shards=%d: %d series, serial %d\nserial %v\nshards %v",
				n, len(gotNames), len(wantNames), wantNames, gotNames)
		}
		for i, name := range wantNames {
			if gotNames[i] != name {
				t.Fatalf("shards=%d: series %d is %q, serial %q (creation order must match: TSV output is ordered)",
					n, i, gotNames[i], name)
			}
			w, g := wantRes.Series.Get(name), gotRes.Series.Get(name)
			if g.Len() != w.Len() {
				t.Errorf("shards=%d: series %q has %d samples, serial %d", n, name, g.Len(), w.Len())
				continue
			}
			for j := range w.T {
				if g.T[j] != w.T[j] || g.V[j] != w.V[j] {
					t.Errorf("shards=%d: series %q sample %d: (%v, %v), serial (%v, %v)",
						n, name, j, g.T[j], g.V[j], w.T[j], w.V[j])
					break
				}
			}
		}
	}
}

// TestShardedFleetDifferential holds the fleet preset — the workload
// sharding exists for — to serial results at several shard counts,
// including counts that do not divide the population and a shard count
// exceeding it (empty shards).
func TestShardedFleetDifferential(t *testing.T) {
	cfg := MustPreset("Fleet", WithFlows(12))
	cfg.Duration = 6
	diffSharded(t, cfg, []int{2, 3, 5, 16})
}

// TestShardedT2Differential exercises the legacy trace mode (full QA
// breakdown, per-RAP series, no fleet aggregates) plus a CBR source
// that starts and stops mid-run, crossing many barrier windows.
func TestShardedT2Differential(t *testing.T) {
	cfg := MustPreset("T2")
	cfg.Duration = 8
	cfg.CBRStart = 2.5037 // mid-window: the start event must not shift
	cfg.CBRStop = 5
	diffSharded(t, cfg, []int{2, 4})
}

// TestShardedSampleOnHorizonDifferential pins SampleInterval exactly to
// the lookahead (min(AccessDelay, LinkDelay) = 0.005): every sampler
// tick lands exactly on a window horizon, the worst case for the
// barrier's strict-below window semantics and the coordinator's tick
// consumption rule.
func TestShardedSampleOnHorizonDifferential(t *testing.T) {
	cfg := MustPreset("Fleet", WithFlows(8))
	cfg.Duration = 2
	cfg.SampleInterval = 0.005
	diffSharded(t, cfg, []int{2, 3})
}

// TestShardedVariedConfigsDifferential sweeps structural variants —
// RED, fine-grain RAP, a RAP-only mix, a TCP-only mix, an uncapped
// legacy trace, the delay and greedy backends — through the
// differential harness.
func TestShardedVariedConfigsDifferential(t *testing.T) {
	base := Config{
		BottleneckRate: 150_000,
		LinkDelay:      0.008,
		AccessDelay:    0.004,
		QueueBytes:     9_000,
		PacketSize:     512,
		Duration:       4,
		SampleInterval: 0.1,
		QA:             core.Params{C: 7_500, Kmax: 2, MaxLayers: 8, StartupSec: 0.5},
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"red", func(c *Config) { c.UseRED = true; c.REDSeed = 42; c.NumQA, c.NumTCP = 2, 3; c.MaxTraceFlows = 2 }},
		{"finegrain", func(c *Config) { c.FineGrainRAP = true; c.NumQA, c.NumRAP = 1, 3; c.MaxTraceFlows = 2 }},
		{"rap-only-legacy", func(c *Config) { c.NumRAP = 4 }},
		{"tcp-heavy", func(c *Config) { c.NumTCP = 6; c.NumQA = 1; c.MaxTraceFlows = 3 }},
		{"cbr-only", func(c *Config) { c.CBRRate = 40_000; c.CBRStop = 3 }},
		{"delay", func(c *Config) {
			c.Transport = transport.KindDelay
			c.NumQA, c.NumRAP, c.NumTCP = 2, 2, 2
			c.MaxTraceFlows = 1
		}},
		{"greedy-legacy", func(c *Config) { c.Transport = transport.KindGreedy; c.NumQA, c.NumRAP, c.NumTCP = 1, 3, 2 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Name = tc.name
			tc.mut(&cfg)
			diffSharded(t, cfg, []int{2, 4})
		})
	}
}

// TestShardedPhysicsCountersMatchSerial attaches a metrics registry on
// both paths and compares the physical counters — transmissions, drops,
// offered load. (Engine-loop counters legitimately differ: the sharded
// run schedules its own barrier-window bookkeeping.)
func TestShardedPhysicsCountersMatchSerial(t *testing.T) {
	snap := func(shards int) map[string]int64 {
		cfg := MustPreset("Fleet", WithFlows(8))
		cfg.Duration = 4
		cfg.Shards = shards
		cfg.Metrics = metrics.NewRegistry()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.Snapshot().Counters
	}
	want := snap(0)
	got := snap(4)
	for _, key := range []string{
		"link.tx.packets", "link.tx.bytes", "queue.offered", "queue.dropped",
		"tcp.acked", "qa.rap.sent",
	} {
		if _, ok := want[key]; !ok {
			t.Fatalf("counter %q absent from the serial run (key renamed?)", key)
		}
		if got[key] != want[key] {
			t.Errorf("counter %q: shards=4 %d, serial %d", key, got[key], want[key])
		}
	}
	if got["sim.shard.barriers"] == 0 {
		t.Error("sharded run published no barrier count")
	}
}

// TestShardedRejectsInvalid covers the sharded engine's requirements
// through Run: scheduler capture is serial-only, and the lookahead
// needs positive cross-shard delays.
func TestShardedRejectsInvalid(t *testing.T) {
	cfg := MustPreset("T1")
	cfg.Shards = 2
	cfg.SchedRec = &sim.SchedRecorder{}
	if _, err := Run(cfg); err == nil {
		t.Error("SchedRec with Shards > 1 accepted")
	}
	cfg = MustPreset("T1")
	cfg.Shards = 2
	cfg.AccessDelay = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero AccessDelay with Shards > 1 accepted (no lookahead exists)")
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

// TestJainIndexGuard is the NaN regression: an all-zero TCP goodput
// population must report fairness 0, not 0/0. encoding/json refuses
// NaN, so the old code made the whole -report artifact fail exactly
// when a run collapsed.
func TestJainIndexGuard(t *testing.T) {
	if v := jainIndex(0, 0, 0); v != 0 {
		t.Errorf("jainIndex(0,0,0) = %v, want 0", v)
	}
	if v := jainIndex(0, 0, 5); v != 0 {
		t.Errorf("jainIndex(0,0,5) = %v, want 0", v)
	}
	if v := jainIndex(6, 12, 3); math.Abs(v-1) > 1e-12 {
		t.Errorf("jainIndex over an even split = %v, want 1", v)
	}
}

// TestReportMarshalsWithZeroGoodput runs a fleet config too short for
// any TCP flow to deliver a byte (TCP starts at 0.05 s) and requires
// the report to marshal and the fairness series to stay finite.
func TestReportMarshalsWithZeroGoodput(t *testing.T) {
	cfg := Config{
		Name:           "zero-goodput",
		BottleneckRate: 100_000,
		LinkDelay:      0.010,
		AccessDelay:    0.005,
		QueueBytes:     10_000,
		NumTCP:         3,
		Duration:       0.04,
		SampleInterval: 0.01,
		MaxTraceFlows:  2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Fleet.JainFairnessTCP != 0 {
		t.Errorf("Jain index over zero goodput = %v, want 0", rep.Fleet.JainFairnessTCP)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("report with zero TCP goodput fails to marshal: %v", err)
	}
	jain := res.Series.Get("fleet.jain.tcp")
	if jain == nil || jain.Len() == 0 {
		t.Fatal("fleet.jain.tcp series missing")
	}
	for i, v := range jain.V {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("fleet.jain.tcp sample %d is %v", i, v)
		}
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
