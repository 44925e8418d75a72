package core

import (
	"math"
	"testing"

	"qav/internal/metrics"
)

// loopback drives a controller against an idealized network: whatever
// share the controller allocates is delivered after a fixed delay of one
// tick. It lets us test the adaptation logic without the simulator.
type loopback struct {
	c   *Controller
	now float64
	dt  float64
}

func newLoopback(t *testing.T, p Params) *loopback {
	t.Helper()
	c, err := NewController(p)
	if err != nil {
		t.Fatal(err)
	}
	c.KeepEvents()
	return &loopback{c: c, dt: 0.005}
}

// run advances the loop for dur seconds at rate R(t), delivering the
// allocated shares perfectly.
func (lb *loopback) run(dur float64, rate func(t float64) float64, slope float64) {
	end := lb.now + dur
	for lb.now < end {
		R := rate(lb.now)
		lb.c.Tick(lb.now, R, slope)
		for i, w := range lb.c.Shares() {
			if b := int(w * lb.dt); b > 0 {
				lb.c.OnDelivered(lb.now, i, b)
			}
		}
		lb.now += lb.dt
	}
}

const (
	cC = 1000.0  // per-layer rate
	cS = 40000.0 // slope
)

func baseParams() Params {
	return Params{C: cC, Kmax: 2, MaxLayers: 6, StartupSec: 0.5}
}

func TestControllerStartsPlayback(t *testing.T) {
	lb := newLoopback(t, baseParams())
	lb.run(2.0, func(float64) float64 { return 2500 }, cS)
	if !lb.c.Playing() {
		t.Fatal("playback did not start with ample bandwidth")
	}
	found := false
	for _, e := range lb.c.Events {
		if e.Kind == EvPlayStart {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvPlayStart event")
	}
}

func TestControllerAddsLayersWithBandwidth(t *testing.T) {
	lb := newLoopback(t, baseParams())
	// Sustained 3.6 layers worth of bandwidth.
	lb.run(60, func(float64) float64 { return 3600 }, cS)
	if got := lb.c.ActiveLayers(); got < 3 {
		t.Fatalf("active layers = %d after 60s at 3.6C, want >= 3", got)
	}
	if got := lb.c.ActiveLayers(); got > 3 {
		t.Fatalf("active layers = %d exceeds instantaneous-rate limit 3", got)
	}
}

func TestControllerAddNeedsRateHeadroom(t *testing.T) {
	lb := newLoopback(t, baseParams())
	// 1.8 layers worth: must stay at one layer (R < 2C) forever.
	lb.run(60, func(float64) float64 { return 1800 }, cS)
	if got := lb.c.ActiveLayers(); got != 1 {
		t.Fatalf("active layers = %d at R=1.8C, want 1", got)
	}
}

func TestControllerAddWaitsForKmaxBuffering(t *testing.T) {
	p := baseParams()
	p.Kmax = 4
	lbSlow, lbFast := newLoopback(t, p), newLoopback(t, baseParams())
	rate := func(float64) float64 { return 3600 }
	// A small slope makes draining phases long and buffer requirements
	// substantial, so the Kmax difference is visible in add times.
	const slope = 100.0
	addTime := func(lb *loopback) float64 {
		for lb.now < 300 {
			lb.run(lb.dt, rate, slope)
			for _, e := range lb.c.Events {
				if e.Kind == EvAddLayer {
					return e.Time
				}
			}
		}
		return math.Inf(1)
	}
	t1, t2 := addTime(lbFast), addTime(lbSlow)
	if math.IsInf(t1, 1) || math.IsInf(t2, 1) {
		t.Fatalf("layers never added: Kmax=2 at %v, Kmax=4 at %v", t1, t2)
	}
	if !(t1 < t2) {
		t.Fatalf("Kmax=2 added at %v, Kmax=4 at %v; higher Kmax must wait longer", t1, t2)
	}
}

func TestControllerBackoffDropsWithoutBuffer(t *testing.T) {
	lb := newLoopback(t, baseParams())
	lb.run(30, func(float64) float64 { return 3600 }, cS)
	na := lb.c.ActiveLayers()
	if na < 2 {
		t.Fatalf("precondition: want >=2 layers, got %d", na)
	}
	// Brutal collapse: rate to a tenth of one layer with a slow recovery
	// slope, so the recovery triangle dwarfs any buffering. The §2.2 rule
	// must shed layers immediately.
	lb.c.OnBackoff(lb.now, 100, 20)
	if got := lb.c.ActiveLayers(); got >= na {
		t.Fatalf("no drop after catastrophic backoff: %d -> %d", na, got)
	}
}

func TestControllerSurvivesSawtoothSteadily(t *testing.T) {
	// AIMD sawtooth between 2.2C and 4.4C (average ~3.3C): after
	// convergence the controller should hold 3 layers through backoffs
	// without stalling — the whole point of the paper.
	lb := newLoopback(t, baseParams())
	period := 2.2 // seconds per sawtooth cycle
	// Peak below 4C so the 4th layer's rate condition never fires; the
	// average (~3.15C) sustains 3 layers through every backoff.
	low, high := 2400.0, 3900.0
	slope := (high - low) / period
	rate := func(tm float64) float64 {
		frac := math.Mod(tm, period) / period
		return low + (high-low)*frac
	}
	// Drive manually so backoffs hit the controller at cycle edges.
	for cycle := 0; cycle < 40; cycle++ {
		lb.run(period, rate, slope)
		lb.c.OnBackoff(lb.now, low, slope)
	}
	if lb.c.StallSec() > 0 {
		t.Fatalf("stalled %.2fs during a steady sawtooth", lb.c.StallSec())
	}
	if got := lb.c.ActiveLayers(); got != 3 {
		t.Fatalf("steady sawtooth holds %d layers, want 3", got)
	}
	// Quality changes must be rare after convergence: count add/drop in
	// the second half.
	half := lb.now / 2
	changes := 0
	for _, e := range lb.c.Events {
		if e.Time >= half && (e.Kind == EvAddLayer || e.Kind == EvDropLayer) {
			changes++
		}
	}
	if changes > 4 {
		t.Fatalf("%d quality changes in steady state, want <= 4", changes)
	}
}

func TestControllerRecoversAfterCollapse(t *testing.T) {
	lb := newLoopback(t, baseParams())
	lb.run(40, func(float64) float64 { return 3600 }, cS)
	before := lb.c.ActiveLayers()
	// Collapse to half a layer for 10 seconds.
	lb.c.OnBackoff(lb.now, 500, cS)
	lb.run(10, func(float64) float64 { return 500 }, cS)
	during := lb.c.ActiveLayers()
	if during != 1 {
		t.Fatalf("during collapse: %d layers, want 1", during)
	}
	// Recovery.
	lb.run(40, func(float64) float64 { return 3600 }, cS)
	after := lb.c.ActiveLayers()
	if after < before-1 {
		t.Fatalf("no recovery: %d layers before, %d after", before, after)
	}
}

func TestControllerPickLayerFollowsShares(t *testing.T) {
	c, err := NewController(baseParams())
	if err != nil {
		t.Fatal(err)
	}
	// Warm up to multiple layers with perfect delivery.
	now := 0.0
	const pkt = 100
	counts := map[int]int{}
	for i := 0; i < 40000; i++ {
		layer := c.PickLayer(now, 3600, cS, pkt)
		c.OnDelivered(now, layer, pkt)
		if i > 20000 {
			counts[layer]++
		}
		now += float64(pkt) / 3600.0
	}
	if c.ActiveLayers() < 3 {
		t.Fatalf("warmup reached only %d layers", c.ActiveLayers())
	}
	// In steady filling each consuming layer must receive about C worth
	// of packets; sends per layer should be within a factor-2 band of the
	// fair pattern for the lower layers.
	if counts[0] == 0 || counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("some active layer starved: %v", counts)
	}
}

func TestControllerStallAndResume(t *testing.T) {
	p := baseParams()
	lb := newLoopback(t, p)
	lb.run(5, func(float64) float64 { return 1500 }, cS)
	if !lb.c.Playing() {
		t.Fatal("precondition: playing")
	}
	// Starve below the base-layer rate long enough to exhaust buffering.
	lb.c.OnBackoff(lb.now, 100, cS)
	lb.run(30, func(float64) float64 { return 100 }, cS)
	if !lb.c.Stalled() && lb.c.StallSec() == 0 {
		t.Fatal("expected a stall during starvation")
	}
	// Recover.
	lb.run(10, func(float64) float64 { return 2000 }, cS)
	if lb.c.Stalled() {
		t.Fatal("stall did not clear after recovery")
	}
	if lb.c.StallSec() <= 0 {
		t.Fatal("StallSec not accounted")
	}
}

func TestControllerParamsValidation(t *testing.T) {
	if _, err := NewController(Params{C: -1}); err == nil {
		t.Fatal("negative C accepted")
	}
	c, err := NewController(Params{C: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if c.P.Kmax < 1 || c.P.MaxLayers < 1 {
		t.Fatal("defaults not applied")
	}
}

// NaN fails every range comparison, so a "<= 0" check lets it through:
// Normalize must reject every non-finite value, and fill the defaults a
// caller left at zero.
func TestParamsNormalize(t *testing.T) {
	for name, p := range map[string]Params{
		"C NaN":           {C: math.NaN()},
		"C +Inf":          {C: math.Inf(1)},
		"C -Inf":          {C: math.Inf(-1)},
		"StartupSec NaN":  {C: 1000, StartupSec: math.NaN()},
		"StartupSec +Inf": {C: 1000, StartupSec: math.Inf(1)},
		"Kmax negative":   {C: 1000, Kmax: -1},
		// Per-packet cost grows with Kmax: no caller may pick any it likes.
		"Kmax above bound": {C: 1000, Kmax: maxKmax + 1},
		"Kmax 100000":      {C: 1000, Kmax: 100_000},
	} {
		if err := p.Normalize(); err == nil {
			t.Errorf("%s: accepted %+v", name, p)
		}
		if _, err := NewController(p); err == nil {
			t.Errorf("%s: NewController accepted it", name)
		}
	}
	if _, err := NewController(Params{C: 1000, Kmax: maxKmax}); err != nil {
		t.Errorf("Kmax %d rejected: %v", maxKmax, err)
	}
	p := Params{C: 1000}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	if want := (Params{C: 1000, Kmax: 2, MaxLayers: 8, StartupSec: 1}); p != want {
		t.Fatalf("Normalize filled %+v, want %+v", p, want)
	}
	c, err := NewController(Params{C: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if c.P != p {
		t.Fatalf("NewController runs %+v, Normalize reports %+v", c.P, p)
	}
}

func TestControllerTimeMonotonicityPanics(t *testing.T) {
	c, _ := NewController(baseParams())
	c.Tick(5, 2000, cS)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Tick did not panic")
		}
	}()
	c.Tick(4, 2000, cS)
}

func TestAllocationPolicyFillTargets(t *testing.T) {
	mk := func(a Allocation) *loopback {
		p := baseParams()
		p.Alloc = a
		return newLoopback(t, p)
	}
	// Equal-share: surplus flows to the emptiest layer, so buffers stay
	// roughly level. Base-only: everything lands on layer 0.
	lbEq, lbBase := mk(AllocEqual), mk(AllocBase)
	rate := func(float64) float64 { return 3600 }
	const slope = 200.0
	lbEq.run(30, rate, slope)
	lbBase.run(30, rate, slope)

	if lbEq.c.ActiveLayers() < 2 || lbBase.c.ActiveLayers() < 2 {
		t.Fatalf("strawmen failed to add layers: eq=%d base=%d",
			lbEq.c.ActiveLayers(), lbBase.c.ActiveLayers())
	}
	eb := lbEq.c.Buffers()
	spread := eb[0] - eb[len(eb)-1]
	if spread > 0.5*eb[0] {
		t.Fatalf("equal policy left skewed buffers: %v", eb)
	}
	bb := lbBase.c.Buffers()
	for i := 1; i < len(bb); i++ {
		if bb[i] > bb[0]/4 {
			t.Fatalf("base-only policy buffered on layer %d: %v", i, bb)
		}
	}
}

// §2.3's argument, measured: under the same loss pattern the optimal
// allocation wastes less buffered data on dropped layers than the
// equal-share strawman.
func TestAllocationPolicyEfficiencyOrdering(t *testing.T) {
	run := func(a Allocation) (eff float64, drops int) {
		p := baseParams()
		p.Alloc = a
		p.Kmax = 3
		lb := newLoopback(t, p)
		// Sawtooth with periodic deep collapses that force drops.
		const slope = 300.0
		for cycle := 0; cycle < 30; cycle++ {
			lb.run(3, func(float64) float64 { return 4300 }, slope)
			depth := 700.0
			lb.c.OnBackoff(lb.now, depth, slope)
			lb.run(2, func(float64) float64 { return depth }, slope)
		}
		sum, n := 0.0, 0
		for _, e := range lb.c.Events {
			if e.Kind == EvDropLayer && e.BufTotal > 0 {
				sum += (e.BufTotal - e.BufDrop) / e.BufTotal
				n++
			}
		}
		if n == 0 {
			return 1, 0
		}
		return sum / float64(n), n
	}
	effOpt, dOpt := run(AllocOptimal)
	effEq, dEq := run(AllocEqual)
	if dOpt == 0 || dEq == 0 {
		t.Skipf("no drops to compare (opt=%d eq=%d)", dOpt, dEq)
	}
	if effOpt < effEq {
		t.Fatalf("optimal efficiency %.3f < equal-share %.3f", effOpt, effEq)
	}
}

// TestEventLogBounded: with MaxEvents set, a kept decision log keeps
// only recent history instead of growing without bound, however long
// the add/drop churn runs.
func TestEventLogBounded(t *testing.T) {
	c, err := NewController(Params{C: 1000, MaxEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	c.KeepEvents()
	for i := 0; i < 10_000; i++ {
		c.event(Event{Time: float64(i)})
	}
	if len(c.Events) > 64 {
		t.Fatalf("event log holds %d entries, cap is 64", len(c.Events))
	}
	if cap(c.Events) > 128 {
		t.Fatalf("event log capacity %d kept growing past the cap", cap(c.Events))
	}
	// The survivors must be the newest events.
	last := c.Events[len(c.Events)-1]
	if last.Time != 9999 {
		t.Fatalf("newest event lost: tail is t=%v", last.Time)
	}
	for i := 1; i < len(c.Events); i++ {
		if c.Events[i].Time <= c.Events[i-1].Time {
			t.Fatalf("event order broken at %d: %v after %v", i, c.Events[i].Time, c.Events[i-1].Time)
		}
	}

	// Unset cap: the full log survives (simulator behavior unchanged).
	c2, err := NewController(Params{C: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c2.KeepEvents()
	for i := 0; i < 10_000; i++ {
		c2.event(Event{Time: float64(i)})
	}
	if len(c2.Events) != 10_000 {
		t.Fatalf("uncapped log truncated to %d", len(c2.Events))
	}
}

// Stats reads running sums, not the log: with MaxEvents capping the log
// at 4 entries, every decision is still counted, and e and the
// poor-distribution share come out as over the whole run.
func TestStatsCountsPastTheLogCap(t *testing.T) {
	c, err := NewController(Params{C: 1000, MaxEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.KeepEvents()
	for _, e := range []Event{
		{Kind: EvPlayStart},
		{Kind: EvAddLayer},
		{Kind: EvAddLayer},
		{Kind: EvBackoff},
		{Kind: EvDropLayer, BufTotal: 1000, BufDrop: 10},
		{Kind: EvDropLayer, BufTotal: 1000, BufDrop: 100, PoorDist: true},
		{Kind: EvDropLayer}, // nothing buffered: nothing wasted, e = 1
		{Kind: EvStallStart},
	} {
		c.event(e)
	}
	st := c.Stats()
	wantE := ((1000.0-10)/1000 + (1000.0-100)/1000 + 1) / 3
	if st.Drops != 3 || st.Adds != 2 || st.Backoffs != 1 || st.Stalls != 1 ||
		st.AvgEfficiency != wantE || st.PoorDistPct != 100.0/3 {
		t.Fatalf("stats %+v; want 3 drops, 2 adds, 1 backoff, 1 stall, e %v, poor %v%%", st, wantE, 100.0/3)
	}
	if len(c.Events) > 4 {
		t.Fatalf("log holds %d events past its cap of 4", len(c.Events))
	}
	if st := (&Controller{}).Stats(); st.AvgEfficiency != 1 || st.PoorDistPct != 0 {
		t.Fatalf("no-drop stats %+v; want e 1 and no poor drops", st)
	}
}

// Without KeepEvents the controller logs nothing, whatever MaxEvents
// says, and still counts every decision.
func TestNoEventLogUnlessKept(t *testing.T) {
	for _, maxEvents := range []int{0, 64} {
		c, err := NewController(Params{C: 1000, MaxEvents: maxEvents})
		if err != nil {
			t.Fatal(err)
		}
		kinds := []EventKind{EvAddLayer, EvDropLayer, EvBackoff, EvStallStart}
		for i := 0; i < 10_000; i++ {
			c.event(Event{Kind: kinds[i%len(kinds)], Time: float64(i)})
		}
		if c.Events != nil {
			t.Fatalf("MaxEvents %d: %d events logged without KeepEvents", maxEvents, len(c.Events))
		}
		if st := c.Stats(); st.Adds != 2500 || st.Drops != 2500 || st.Backoffs != 2500 || st.Stalls != 2500 || st.AvgEfficiency != 1 {
			t.Fatalf("MaxEvents %d: stats %+v; want 2500 of each decision, e 1", maxEvents, st)
		}
	}
}

// A run that ends mid-stall has lost playback since the stall began:
// StallSec counts the open stall up to the last Tick, and the
// stalled.sec gauge reads the same.
func TestStallSecCountsOpenStall(t *testing.T) {
	lb := newLoopback(t, baseParams())
	reg := metrics.NewRegistry()
	lb.c.Instrument(reg, "qa", NewInstruments(reg, "qa"))
	lb.run(5, func(float64) float64 { return 1500 }, cS)
	// Starve below one layer: no whole byte is delivered per tick, so
	// the stall never clears.
	starve := func(float64) float64 { return 100 }
	lb.c.OnBackoff(lb.now, 100, cS)
	for !lb.c.Stalled() && lb.now < 60 {
		lb.run(lb.dt, starve, cS)
	}
	lb.run(3, starve, cS)
	lb.c.Tick(lb.now, 100, cS)
	began := -1.0
	for _, e := range lb.c.Events {
		if e.Kind == EvStallStart {
			began = e.Time
		}
	}
	if !lb.c.Stalled() || began < 0 {
		t.Fatalf("stalled %v, stall began at %v; want a stall still open", lb.c.Stalled(), began)
	}
	want := lb.now - began
	if got := lb.c.StallSec(); got != want || want < 3 {
		t.Fatalf("StallSec %v mid-stall, want %v (last tick %v - stall start %v)", got, want, lb.now, began)
	}
	if got := reg.Snapshot().Gauges["qa.stalled.sec"]; got != want {
		t.Fatalf("qa.stalled.sec gauge %v, want %v", got, want)
	}
}

// Instrument with a nil registry attaches the shared counters and
// builds nothing: no gauge name, no closure. Two such controllers count
// their adds, drops and backoffs into the one set of srv.qa.* counters
// and publish no gauge; a controller instrumented with a registry
// publishes its five.
func TestInstrumentWithoutRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	ins := NewInstruments(reg, "srv.qa")
	a, b := newLoopback(t, baseParams()), newLoopback(t, baseParams())
	if allocs := testing.AllocsPerRun(100, func() { a.c.Instrument(nil, "srv.qa", ins) }); allocs != 0 {
		t.Fatalf("Instrument(nil, ...): %.0f allocs, want 0", allocs)
	}
	b.c.Instrument(nil, "srv.qa", ins)
	for _, lb := range []*loopback{a, b} {
		lb.run(30, func(float64) float64 { return 3600 }, cS)
		lb.c.OnBackoff(lb.now, 100, 20)
	}
	sa, sb := a.c.Stats(), b.c.Stats()
	if sa.Adds == 0 || sa.Drops == 0 || sa.Backoffs == 0 {
		t.Fatalf("precondition: stats %+v, want adds, drops and backoffs", sa)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int{
		"srv.qa.adds":     sa.Adds + sb.Adds,
		"srv.qa.drops":    sa.Drops + sb.Drops,
		"srv.qa.backoffs": sa.Backoffs + sb.Backoffs,
	} {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("%s = %d, controllers counted %d", name, got, want)
		}
	}
	if len(snap.Gauges) != 0 {
		t.Errorf("controllers without a registry published gauges %v", snap.Gauges)
	}

	simReg := metrics.NewRegistry()
	c := newLoopback(t, baseParams())
	c.c.Instrument(simReg, "qa", NewInstruments(simReg, "qa"))
	c.run(30, func(float64) float64 { return 3600 }, cS)
	gauges := simReg.Snapshot().Gauges
	for name, want := range map[string]float64{
		"qa.layers":      float64(c.c.ActiveLayers()),
		"qa.buftotal":    c.c.TotalBuf(),
		"qa.played.sec":  c.c.PlayedSec,
		"qa.stalled.sec": c.c.StallSec(),
		"qa.layers.mean": c.c.LayerSeconds / c.c.PlayedSec,
	} {
		if got, ok := gauges[name]; !ok || got != want {
			t.Errorf("gauge %s = %v (published %v), want %v", name, got, ok, want)
		}
	}
	if len(gauges) != 5 {
		t.Errorf("%d gauges published, want 5: %v", len(gauges), gauges)
	}
}
