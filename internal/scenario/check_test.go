package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qav/internal/core"
	"qav/internal/flow"
	"qav/internal/metrics"
	"qav/internal/sim"
	"qav/internal/transport"
)

// One checker for the controller's guarantees. Every scenario test runs
// through recordRun, runChecked or runAllChecked: the run records each QA
// flow's controller calls (Config.record), and checkRecord replays each
// record on a fresh controller, holding it after every input to the rules
// below. It reads only the controller's exported state and core's
// exported formulas. It watches a replay, never the run, so checking
// cannot change a run; replay is bit for bit (TestReplayMatchesRun*), so
// what it checks is what the run did.
//
//   - Accounting, per layer. A pick, repair or tick at now takes each
//     active layer's buffer b to max(b − C·(now − lastTick), 0) if the
//     controller was playing before the call, and leaves it otherwise
//     (lastTick: the Now of the last pick, repair or tick). Then the
//     call's events apply in order: an add appends an empty layer, a drop
//     removes the top one. An ACK adds exactly the packet size to one
//     layer, or changes nothing. A backoff changes buffers only by its
//     drops.
//   - Events carry the input's time and rate. An add names the new top
//     layer; a drop names the old top, never the base, and reports the
//     top's buffer and the total just before it. The layer count stays
//     in [1, MaxLayers].
//   - Add rule (§2.1 under §3.1's Kmax smoothing): every add satisfies
//     AddCondition, with the controller's own slope fallback.
//   - Drop rule (§2.2): once playback has started, a backoff drops exactly
//     DropCount layers, none critical; before, none. A critical drop comes
//     only from a pick, repair or tick with R < na·C.
//   - Tally: Stats equals the checker's own count of the events, bitwise.
//   - Sanity: buffers are numbers ≥ 0; after a pick, repair or tick the
//     shares are ≥ 0 and sum to at most R + na·C; PlayedSec and
//     LayerSeconds never decrease.
//   - Base layer: stalls and the bytes the accounting clamps off layer 0
//     are counted. A run has neither, unless findings pins it.

// baseLayer is what a run's QA flows lost on the base layer by the
// controller's own account: the flows with any underflow, the clamps and
// bytes clamped off layer 0, and the stalls.
type baseLayer struct {
	Flows, Clamps, Stalls int
	Bytes                 float64
}

// findings pins the runs whose base layer underflows (EXPERIMENTS.md
// "Base layer, by the controller's own account"), keyed by config with
// the execution knobs cleared (see checkRecords). Only the greedy runs
// and two T2 runs at scale 1 stall.
var findings = map[Config]baseLayer{
	MustPreset("Fleet"):                                                {Flows: 14, Clamps: 320, Bytes: 13871},
	MustPreset("Fleet", WithFlows(40)):                                 {Flows: 1, Clamps: 18, Bytes: 1040},
	withDuration(MustPreset("Fleet", WithFlows(1000)), 5):              {Flows: 1, Clamps: 1, Bytes: 5},
	MustPreset("T2"):                                                   {Flows: 1, Clamps: 4, Bytes: 314},
	MustPreset("T2", WithKmax(5)):                                      {Flows: 1, Clamps: 13, Stalls: 1, Bytes: 838},
	MustPreset("T2", WithKmax(8)):                                      {Flows: 1, Clamps: 9, Bytes: 826},
	withAlloc(MustPreset("T2", WithKmax(3)), core.AllocEqual):          {Flows: 1, Clamps: 47, Stalls: 1, Bytes: 3058},
	MustPreset("T1", WithKmax(5)):                                      {Flows: 1, Clamps: 9, Bytes: 360},
	withAlloc(MustPreset("T1", WithKmax(3)), core.AllocEqual):          {Flows: 1, Clamps: 179, Bytes: 8134},
	MustPreset("T1", WithKmax(8)):                                      {Flows: 1, Clamps: 18, Bytes: 672},
	MustPreset("T1", WithTransport(transport.KindDelay)):               {Flows: 1, Clamps: 51, Bytes: 3547},
	MustPreset("T1", WithKmax(8), WithTransport(transport.KindDelay)):  {Flows: 1, Clamps: 31, Bytes: 2160},
	MustPreset("T1", WithTransport(transport.KindGreedy)):              {Flows: 1, Clamps: 242, Stalls: 3, Bytes: 12706},
	MustPreset("T1", WithKmax(8), WithTransport(transport.KindGreedy)): {Flows: 1, Clamps: 301, Stalls: 3, Bytes: 15051},
}

func withDuration(cfg Config, d float64) Config {
	cfg.Duration = d
	return cfg
}

func withAlloc(cfg Config, a core.Allocation) Config {
	cfg.QA.Alloc = a
	return cfg
}

// recordRun runs cfg with the QA flows' controller calls recorded,
// checks every QA flow (checkRun), and returns the result and the
// records.
func recordRun(t *testing.T, cfg Config) (*Result, [][]flow.Input) {
	t.Helper()
	var rec [][]flow.Input
	cfg.record = &rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, cfg, res, rec)
	return res, rec
}

// runChecked is recordRun for a caller that needs no record.
func runChecked(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, _ := recordRun(t, cfg)
	return res
}

// runAllChecked is RunAll with every run checked as recordRun checks it.
func runAllChecked(t *testing.T, cfgs []Config, workers int) []*Result {
	t.Helper()
	recs := make([][][]flow.Input, len(cfgs))
	cfgs = slices.Clone(cfgs)
	for i := range cfgs {
		cfgs[i].record = &recs[i]
	}
	results, err := RunAll(cfgs, workers)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		checkRun(t, cfgs[i], res, recs[i])
	}
	return results
}

// reportsChecked is RunReports with every group's record checked as
// recordRun checks a run's, under each config of the group, and each
// first replay held to its config's report.
func reportsChecked(t *testing.T, cfgs []Config, workers int) []RunReport {
	t.Helper()
	recs := make([][][]flow.Input, len(cfgs))
	cfgs = slices.Clone(cfgs)
	for i := range cfgs {
		cfgs[i].record = &recs[i]
	}
	reps, err := RunReports(cfgs, workers)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if len(recs[i]) != cfgs[i].NumQA {
			t.Fatalf("%s: %d records for %d QA flows", cfgs[i].Name, len(recs[i]), cfgs[i].NumQA)
		}
		checkRecords(t, cfgs[i], rep.Config, recs[i], func(j int, c *core.Controller) {
			if j == 0 && (c.Stats() != rep.Drops || c.StallSec() != rep.StallSec || c.PlayedSec != rep.PlayedSec) {
				t.Fatalf("%s: the replay ends at %+v, the report says %+v", cfgs[i].Name, c.Stats(), rep.Drops)
			}
		})
	}
	return reps
}

// eachChecked is RunEach with every config's record checked as recordRun
// checks a run's. It returns the results in input order.
func eachChecked(t *testing.T, cfgs []Config, workers int) []*Result {
	t.Helper()
	recs := make([][][]flow.Input, len(cfgs))
	cfgs = slices.Clone(cfgs)
	for i := range cfgs {
		cfgs[i].record = &recs[i]
	}
	results := make([]*Result, len(cfgs))
	if _, err := RunEach(cfgs, workers, nil, func(i int, res *Result) { results[i] = res }); err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		checkRecords(t, cfgs[i], res.Cfg, recs[i], func(j int, c *core.Controller) {
			if j == 0 && (c.Stats() != res.Stats || !sameLog(c, res)) {
				t.Fatalf("%s: the replay ends at %+v, %d events, the result says %+v, %d events (untraced %v)",
					cfgs[i].Name, c.Stats(), len(c.Events), res.Stats, len(res.Events), res.Cfg.untraced)
			}
		})
	}
	return results
}

// checkRun checks each QA flow's record, that each replay ends where its
// flow did, that Result.Stats is the first flow's, and that the run's
// base-layer account is the one findings pins for it (none if unpinned).
func checkRun(t *testing.T, cfg Config, res *Result, rec [][]flow.Input) {
	t.Helper()
	if len(rec) != len(res.QASrcs) {
		t.Fatalf("%s: %d records for %d QA flows", cfg.Name, len(rec), len(res.QASrcs))
	}
	checkRecords(t, cfg, res.Cfg, rec, func(i int, c *core.Controller) {
		if q := res.QASrcs[i]; c.Stats() != q.Ctrl.Stats() || len(c.Events) != len(q.Ctrl.Events) || i == 0 && !sameLog(c, res) {
			t.Fatalf("%s QA flow %d: the replay ends at %+v, %d events, the run at %+v, %d events, its Result %d",
				cfg.Name, i, c.Stats(), len(c.Events), q.Ctrl.Stats(), len(q.Ctrl.Events), len(res.Events))
		}
	})
	if res.QASrc != nil && res.Stats != res.QASrc.Ctrl.Stats() {
		t.Fatalf("%s: Result.Stats %+v, the first QA flow's %+v", cfg.Name, res.Stats, res.QASrc.Ctrl.Stats())
	}
}

// sameLog reports whether res keeps the decision log that c, the replay
// of its first QA flow, keeps: none if res is untraced, one as long
// otherwise.
func sameLog(c *core.Controller, res *Result) bool {
	if res.Cfg.untraced {
		return res.Events == nil
	}
	return len(c.Events) == len(res.Events)
}

// checkRecords checks each QA flow's record of a run of cfg (n is cfg
// normalized), hands each flow's replay to match, and holds the run's
// base-layer account to the one findings pins for it (none if unpinned).
func checkRecords(t *testing.T, cfg, n Config, rec [][]flow.Input, match func(i int, c *core.Controller)) {
	t.Helper()
	var got baseLayer
	for i := range rec {
		c, b := checkRecord(t, n.QA, rec[i], n.PacketSize)
		match(i, c)
		if b.Clamps > 0 {
			got.Flows++
		}
		got.Clamps += b.Clamps
		got.Stalls += b.Stalls
		got.Bytes += b.Bytes
	}
	got.Bytes = math.Round(got.Bytes)
	key := cfg
	key.Metrics, key.SchedRec, key.record, key.untraced = nil, nil, nil, false
	if want := findings[key]; got != want {
		t.Errorf("%s %v, %g s: base layer %+v, want %+v", cfg.Name, n.QA.Alloc, cfg.Duration, got, want)
	}
	if got.Clamps > 0 {
		t.Logf("%s %v, %g s: base-layer underflow on %d of %d QA flows, %d clamps, %.0f B, %d stalls",
			cfg.Name, n.QA.Alloc, cfg.Duration, got.Flows, len(rec), got.Clamps, got.Bytes, got.Stalls)
	}
}

// checkRecord replays rec, recorded with pktSize-byte packets, on a fresh
// controller with params p, holding it to the rules above after every
// input. It returns the controller and its base-layer account.
func checkRecord(t *testing.T, p core.Params, rec []flow.Input, pktSize int) (*core.Controller, baseLayer) {
	t.Helper()
	c, err := core.NewController(p)
	if err != nil {
		t.Fatal(err)
	}
	c.KeepEvents()
	r := flow.NewReplayer(c, pktSize)
	C, pkt := c.P.C, float64(pktSize)
	bufs := []float64{0} // the checker's account
	var (
		lastTick, played, layerSec, sumE float64
		started                          bool
		poor                             int
		tally                            core.DropStats
		base                             baseLayer
		i                                int
		in                               flow.Input
	)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("input %d %+v: %s\nlast events: %+v", i, in, fmt.Sprintf(format, args...), c.Events[max(0, len(c.Events)-16):])
	}
	for i, in = range rec {
		tick := in.Kind == flow.InPick || in.Kind == flow.InRepair || in.Kind == flow.InTick
		S := in.S
		if S <= 0 || math.IsNaN(S) || math.IsInf(S, 0) {
			S = C
		}
		wantDrops := -1
		if in.Kind == flow.InBackoff {
			wantDrops = 0
			if started {
				wantDrops = core.DropCount(in.R, bufs, C, S)
			}
		}
		if tick {
			if c.Playing() {
				for l, b := range bufs {
					if b -= C * (in.Now - lastTick); b < 0 {
						if l == 0 {
							base.Clamps++
							base.Bytes -= b
						}
						b = 0
					}
					bufs[l] = b
				}
			}
			lastTick = in.Now
		}
		n := len(c.Events)
		r.Feed(in)
		if in.Kind == flow.InAck && len(c.Events) > n {
			fail("an ACK made events")
		}
		drops := 0
		for _, e := range c.Events[n:] {
			na := len(bufs)
			if e.Time != in.Now || e.Rate != in.R {
				fail("event %+v does not carry the input's time and rate", e)
			}
			switch e.Kind {
			case core.EvAddLayer:
				if !tick || e.Layer != na || !core.AddCondition(e.Rate, na, sum(bufs), C, S, c.P.Kmax) {
					fail("add %+v breaks §2.1: buffers %v, slope %v", e, bufs, S)
				}
				bufs = append(bufs, 0)
				tally.Adds++
			case core.EvDropLayer:
				total := sum(bufs)
				req := core.TriangleArea(float64(na)*C-e.Rate, S)
				if e.Layer != na-1 || e.Layer < 1 || e.BufDrop != bufs[na-1] || e.BufTotal != total || e.PoorDist != (total >= req && req > 0) {
					fail("drop %+v does not match buffers %v", e, bufs)
				}
				if e.Critical != tick || (tick && in.R >= float64(na)*C) {
					fail("drop %+v breaks §2.2 at %d layers", e, na)
				}
				bufs = bufs[:na-1]
				drops++
				tally.Drops++
				if e.BufTotal > 0 {
					sumE += (e.BufTotal - e.BufDrop) / e.BufTotal
				} else {
					sumE++
				}
				if e.PoorDist {
					poor++
				}
			case core.EvBackoff:
				tally.Backoffs++
			case core.EvStallStart:
				tally.Stalls++
			case core.EvPlayStart:
				started = true
			}
		}
		if wantDrops >= 0 && drops != wantDrops {
			fail("the backoff dropped %d layers, DropCount says %d", drops, wantDrops)
		}
		got := c.Buffers()
		if in.Kind == flow.InAck {
			for l := range min(len(got), len(bufs)) {
				if got[l] != bufs[l] {
					if got[l] == bufs[l]+pkt {
						bufs[l] = got[l]
					}
					break
				}
			}
		}
		if len(got) != len(bufs) || len(got) > c.P.MaxLayers {
			fail("buffers %v, the account says %v (at most %d layers)", got, bufs, c.P.MaxLayers)
		}
		for l, b := range got {
			if b != bufs[l] || !(b >= 0) {
				fail("buffers %v, the account says %v", got, bufs)
			}
		}
		if tick {
			total := 0.0
			for _, w := range c.Shares() {
				if !(w >= 0) {
					fail("shares %v", c.Shares())
				}
				total += w
			}
			if total > in.R+float64(len(got))*C {
				fail("shares %v sum above R + na·C", c.Shares())
			}
		}
		if c.PlayedSec < played || c.LayerSeconds < layerSec {
			fail("played %v s and %v layer-s, down from %v and %v", c.PlayedSec, c.LayerSeconds, played, layerSec)
		}
		played, layerSec = c.PlayedSec, c.LayerSeconds
		want := tally
		want.AvgEfficiency = 1
		if want.Drops > 0 {
			want.AvgEfficiency = sumE / float64(want.Drops)
			want.PoorDistPct = 100 * float64(poor) / float64(want.Drops)
		}
		if st := c.Stats(); st != want {
			fail("Stats %+v, the events count %+v", st, want)
		}
	}
	base.Stalls = tally.Stalls
	return c, base
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// The checker on a synthetic process: a random-walk rate with 1 % halvings
// fed as backoffs, one pick per packet time, each pick ACKed a fixed
// delay later unless lost, and NaN, zero and +Inf slopes mixed in.
func TestCheckerRandomProcess(t *testing.T) {
	p := core.Params{C: 1000, Kmax: 2, MaxLayers: 6, StartupSec: 0.5}
	const pkt, delay = 100, 0.05
	slopes := []float64{math.NaN(), 0, math.Inf(1)}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rec, acks []flow.Input
		R, now := 2500.0, 0.0
		for seq := int64(0); seq < 8000; seq++ {
			for len(acks) > 0 && acks[0].Now <= now {
				rec, acks = append(rec, acks[0]), acks[1:]
			}
			R = min(max(R+(rng.Float64()-0.48)*200, 200), 8000)
			S := 40000.0
			if rng.Float64() < 0.05 {
				S = slopes[rng.Intn(len(slopes))]
			}
			if rng.Float64() < 0.01 {
				R /= 2
				rec = append(rec, flow.Input{Kind: flow.InBackoff, Now: now, R: R, S: S})
			}
			rec = append(rec, flow.Input{Kind: flow.InPick, Now: now, R: R, S: S, Seq: seq})
			if rng.Float64() >= 0.03 {
				acks = append(acks, flow.Input{Kind: flow.InAck, Now: now + delay, Seq: seq})
			}
			now += pkt / R
		}
		c, _ := checkRecord(t, p, rec, pkt)
		if st := c.Stats(); st.Adds == 0 || st.Drops == 0 {
			t.Errorf("seed %d: %+v: the process never adds or never drops", seed, st)
		}
	}
}

// RunReports simulates each network once and replays every other config
// of its group on the record. That is exact only while the network never
// reads a controller decision, so every report must be, byte for byte,
// what Run and Report give for its config. A layer-dependent packet size
// or a repair slot in the simulator fails this test. The scale-1 legs
// run under -short.
func TestRunReportsMatchesRun(t *testing.T) {
	legs := map[string][]Config{}
	for _, scale := range []float64{1, 8} {
		if scale != 1 && testing.Short() {
			continue
		}
		for _, test := range []string{"T1", "T2"} {
			var cfgs []Config
			for _, kmax := range paperKmax {
				cfgs = append(cfgs, MustPreset(test, WithKmax(kmax), WithScale(scale)))
			}
			for _, alloc := range []core.Allocation{core.AllocEqual, core.AllocBase} {
				cfg := MustPreset(test, WithKmax(3), WithScale(scale))
				cfg.QA.Alloc = alloc
				cfgs = append(cfgs, cfg)
			}
			legs[fmt.Sprintf("%s scale %g", test, scale)] = cfgs
		}
	}
	for _, kind := range []transport.Kind{transport.KindDelay, transport.KindGreedy} {
		legs["T1 "+string(kind)] = []Config{
			MustPreset("T1", WithKmax(2), WithTransport(kind)),
			MustPreset("T1", WithKmax(8), WithTransport(kind)),
		}
	}
	var fleet []Config
	for _, kmax := range []int{2, 4} {
		fleet = append(fleet, MustPreset("Fleet", WithFlows(40), WithKmax(kmax)))
	}
	legs["Fleet"] = fleet
	for name, cfgs := range legs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for i := range cfgs {
				cfgs[i].Metrics = metrics.NewRegistry()
			}
			reps := reportsChecked(t, cfgs, 2)
			for i, cfg := range cfgs {
				cfg.Metrics = metrics.NewRegistry()
				want, err := json.Marshal(runChecked(t, cfg).Report())
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(reps[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: RunReports differs from Run:\n got %s\nwant %s", cfg.Name, got, want)
				}
			}
		})
	}
}

// Configs group only when they differ in nothing but name, controller
// parameters, registry and tracing: a change to the network, the run or
// the sampling simulates again.
func TestRunReportsGrouping(t *testing.T) {
	base := MustPreset("T1", WithKmax(2))
	base.Metrics = metrics.NewRegistry()
	same := MustPreset("T1", WithKmax(8))
	same.QA.Alloc = core.AllocEqual
	same.Metrics = metrics.NewRegistry()
	same.untraced = true
	k0, ok := keyOf(base)
	if k1, ok1 := keyOf(same); !ok || !ok1 || k0 != k1 {
		t.Fatal("T1 at Kmax 2, traced, and at Kmax 8, untraced, do not share a simulation")
	}
	for name, change := range map[string]func(*Config){
		"REDSeed":    func(c *Config) { c.REDSeed = 7 },
		"StartSeed":  func(c *Config) { c.StartSeed = 1 },
		"Duration":   func(c *Config) { c.Duration = 20 },
		"QueueBytes": func(c *Config) { c.QueueBytes++ },
		"Transport":  func(c *Config) { c.Transport = transport.KindDelay },
		"Metrics":    func(c *Config) { c.Metrics = nil },
	} {
		cfg := same
		change(&cfg)
		if k, ok := keyOf(cfg); ok && k == k0 {
			t.Errorf("configs that differ in %s share a simulation", name)
		}
	}
	alone := base
	alone.SchedRec = &sim.SchedRecorder{}
	if _, ok := keyOf(alone); ok {
		t.Error("a run with SchedRec shares a simulation")
	}
	if _, ok := keyOf(MustPreset("SingleRAP")); ok {
		t.Error("a run without a QA flow shares a simulation")
	}
}
