package core

import (
	"fmt"
	"math"
)

// Controller is the server-side quality adaptation engine. It tracks the
// receiver's per-layer buffering (from delivery acknowledgements and the
// playout clock), decides when layers are added and dropped, and assigns
// each outgoing packet to a layer so that buffers follow the maximally
// efficient path during filling and are drained along the same path in
// reverse.
//
// The controller is clock-agnostic: all methods take the current time,
// so it runs unchanged in the simulator and over real UDP. It is not
// goroutine-safe.
type Controller struct {
	P Params

	na   int       // active layers
	bufs []float64 // estimated receiver buffering per active layer, bytes

	playing bool
	stalled bool

	lastTick float64
	credits  []float64

	// Cached allocation (recomputed on every Tick).
	shares []float64 // per-layer network share, bytes/s

	// Scratch reused across allocation recomputations: the draining
	// planner runs on every refresh below the consumption rate, and a
	// long-lived serving session must not allocate there. Its first
	// na entries are the last plan's drains.
	drainBuf []float64

	// geo holds the formula terms for the rate, slope and layer count of
	// its last use (see geom).
	geo geometry

	rate  float64 // last known transmission rate
	slope float64 // last known additive-increase slope

	// arrears accumulates consumption bytes the drain plan could not
	// cover; a critical-situation drop requires persistent shortfall,
	// not a single infeasible planning horizon.
	arrears float64
	tickDt  float64 // duration covered by the current Tick

	// lastChange is the time of the most recent add/drop/play event,
	// for addSpacing enforcement.
	lastChange float64

	// Allocation cache: shares are recomputed at most every
	// planHorizon/5 (or immediately after add/drop/backoff or a rate
	// swing), not on every packet.
	lastAlloc     float64
	lastAllocRate float64
	allocDirty    bool

	// Events is the decision log, for display; nil unless KeepEvents
	// was called (a kept log is bounded by P.MaxEvents). The counts live
	// in the running sums below.
	Events     []Event
	keepEvents bool

	// Running sums of every decision, whatever the log kept: Stats reads
	// them. sumE is Σe over drops, poorDrops the poor-distribution drops.
	tally     DropStats
	sumE      float64
	poorDrops int

	// ins, set via Instrument, receives the same decisions as counter
	// increments; noInstruments on uninstrumented controllers.
	ins *Instruments

	// Cumulative quality/playback statistics.
	stallSec     float64 // completed stalls; StallSec adds an open one
	stallBegin   float64
	PlayedSec    float64
	LayerSeconds float64 // integral of active layer count over played time
}

// NewController returns a controller with one active (base) layer and
// empty buffers.
func NewController(p Params) (*Controller, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	c := &Controller{P: p, ins: &noInstruments}
	c.Restart()
	return c, nil
}

// Restart returns c to NewController's state under the same Params: one
// active layer, empty buffers, playback not started, no decision
// counted. It keeps the per-layer slices' capacity, the drain scratch,
// the decision log's setting (KeepEvents) and the attached instruments,
// so a restarted controller adds layers and plans drains without
// allocating.
func (c *Controller) Restart() {
	*c = Controller{
		P:          c.P,
		na:         1,
		bufs:       append(c.bufs[:0], 0),
		credits:    append(c.credits[:0], 0),
		shares:     append(c.shares[:0], 0),
		drainBuf:   c.drainBuf,
		Events:     c.Events[:0],
		keepEvents: c.keepEvents,
		ins:        c.ins,
	}
}

// KeepEvents makes the controller log its decisions in Events from now
// on. Without it the log stays nil: Stats and the instruments count
// every decision either way, and they are all a table or a report
// reads, so only a reader of the log itself (a display, a replay
// check) calls it.
func (c *Controller) KeepEvents() { c.keepEvents = true }

// Stats returns the controller's decision counts and the Tables 1-2
// metrics, from running sums kept as the decisions are made.
func (c *Controller) Stats() DropStats {
	st := c.tally
	if st.Drops > 0 {
		st.AvgEfficiency = c.sumE / float64(st.Drops)
		st.PoorDistPct = 100 * float64(c.poorDrops) / float64(st.Drops)
	} else {
		st.AvgEfficiency = 1
	}
	return st
}

// StallSec returns the playback time lost to stalls, counting a stall
// still in progress up to the last Tick.
func (c *Controller) StallSec() float64 {
	if c.stalled {
		return c.stallSec + (c.lastTick - c.stallBegin)
	}
	return c.stallSec
}

// ActiveLayers returns the number of currently active layers.
func (c *Controller) ActiveLayers() int { return c.na }

// Playing reports whether playback has started and is not stalled.
func (c *Controller) Playing() bool { return c.playing && !c.stalled }

// Stalled reports whether playback is paused on base-layer underflow.
func (c *Controller) Stalled() bool { return c.stalled }

// Buffers returns a copy of the per-layer buffer estimates in bytes.
func (c *Controller) Buffers() []float64 {
	out := make([]float64, c.na)
	copy(out, c.bufs)
	return out
}

// Shares returns a copy of the current per-layer bandwidth shares in
// bytes/s (valid after a Tick).
func (c *Controller) Shares() []float64 {
	out := make([]float64, c.na)
	copy(out, c.shares)
	return out
}

// Layer returns active layer l's buffer estimate in bytes and its
// bandwidth share in bytes/s (valid after a Tick), without a copy.
func (c *Controller) Layer(l int) (buf, share float64) { return c.bufs[l], c.shares[l] }

// TotalBuf returns the total buffering across active layers, bytes.
func (c *Controller) TotalBuf() float64 {
	t := 0.0
	for _, b := range c.bufs {
		t += b
	}
	return t
}

// ConsumptionRate returns the aggregate consumption rate na·C while
// playing (zero before playback or during a stall).
func (c *Controller) ConsumptionRate() float64 {
	if !c.Playing() {
		return 0
	}
	return float64(c.na) * c.P.C
}

// OnDelivered credits bytes of layer data confirmed delivered to the
// receiver. Deliveries for layers that have since been dropped are
// ignored (their data plays out but no longer provides buffering, per
// the paper's efficiency argument).
func (c *Controller) OnDelivered(now float64, layer int, bytes int) {
	if layer < 0 || layer >= c.na || bytes <= 0 {
		return
	}
	c.bufs[layer] += float64(bytes)
}

// OnBackoff informs the controller of a congestion backoff. rate is the
// new (post-decrease) transmission rate and slope the current additive
// increase slope estimate. The §2.2 drop rule runs immediately.
func (c *Controller) OnBackoff(now, rate, slope float64) {
	c.rate, c.slope = rate, c.safeSlope(slope)
	c.event(Event{Time: now, Kind: EvBackoff, Rate: rate})
	if !c.playing {
		return // nothing is being consumed; no recovery needed
	}
	drops := DropCount(rate, c.bufs[:c.na], c.P.C, c.slope)
	for i := 0; i < drops; i++ {
		c.dropTop(now, false)
	}
	c.allocDirty = true
}

// Tick advances the playout clock to now under transmission rate R and
// slope S, runs the coarse-grain add/drop checks, and recomputes the
// fine-grain per-layer bandwidth shares.
func (c *Controller) Tick(now, R, S float64) {
	if now < c.lastTick {
		panic(fmt.Sprintf("core: Tick time went backwards: %v < %v", now, c.lastTick))
	}
	c.rate, c.slope = R, c.safeSlope(S)
	dt := now - c.lastTick
	c.lastTick = now
	c.tickDt = dt

	// Playout consumption.
	if c.playing && !c.stalled && dt > 0 {
		c.PlayedSec += dt
		c.LayerSeconds += dt * float64(c.na)
		for i := 0; i < c.na; i++ {
			c.bufs[i] -= c.P.C * dt
			if c.bufs[i] < 0 {
				// In-flight jitter; systematic shortfalls surface as
				// drain-plan infeasibility below.
				c.bufs[i] = 0
			}
		}
	}

	// Startup and stall-recovery thresholds on the base-layer buffer.
	startup := c.P.StartupSec * c.P.C
	if !c.playing {
		if c.bufs[0] >= startup {
			c.playing = true
			c.lastChange = now
			c.event(Event{Time: now, Kind: EvPlayStart, Rate: R})
		}
	} else if c.stalled {
		if c.bufs[0] >= startup/2 {
			c.stalled = false
			c.stallSec += now - c.stallBegin
			c.event(Event{Time: now, Kind: EvStallEnd, Rate: R})
		}
	}

	if c.allocStale(now) {
		c.maybeAdd(now)
		c.computeShares(now)
		c.lastAlloc = now
		c.lastAllocRate = c.rate
		c.allocDirty = false
	}
}

// allocStale reports whether the cached allocation must be refreshed.
func (c *Controller) allocStale(now float64) bool {
	if c.allocDirty || c.lastAllocRate <= 0 {
		return true
	}
	if now-c.lastAlloc >= planHorizon/5 {
		return true
	}
	swing := math.Abs(c.rate-c.lastAllocRate) / c.lastAllocRate
	return swing > 0.05
}

// PickLayer chooses the layer for the next outgoing packet of pktSize
// bytes. It ticks the controller first, so calling it on every packet is
// the only integration needed on the send path.
//
// Packets are distributed by a deficit counter: each send injects
// exactly one packet's worth of credit, split across layers in
// proportion to their bandwidth shares, and the richest layer wins the
// packet. Crediting by packet rather than wall time keeps the
// distribution exact even when the caller's pacing jitters (real-clock
// sleeps always overshoot the inter-packet gap).
func (c *Controller) PickLayer(now, R, S float64, pktSize int) int {
	c.Tick(now, R, S)
	sum := 0.0
	for i := 0; i < c.na; i++ {
		sum += c.shares[i]
	}
	if sum > 0 {
		for i := 0; i < c.na; i++ {
			c.credits[i] += float64(pktSize) * c.shares[i] / sum
		}
	}
	best, bestCredit := 0, math.Inf(-1)
	for i := 0; i < c.na; i++ {
		if c.credits[i] > bestCredit {
			best, bestCredit = i, c.credits[i]
		}
	}
	c.credits[best] -= float64(pktSize)
	return best
}

// maybeAdd applies §2.1's adding conditions with §3.1's Kmax smoothing.
func (c *Controller) maybeAdd(now float64) {
	if c.na >= c.P.MaxLayers || c.stalled {
		return
	}
	// A new layer's playout is anchored to the base layer's (§2.1's
	// inter-layer timing dependency): no adds before playback starts,
	// and no adds within addSpacing of the previous quality change.
	if !c.playing || now-c.lastChange < addSpacing {
		return
	}
	// Condition 1: the instantaneous rate sustains all layers plus one.
	if c.rate < float64(c.na+1)*c.P.C {
		return
	}
	// Condition 2 (smoothed): the buffering on hand would let the
	// *enlarged* layer set survive Kmax backoffs — adding must not
	// endanger existing layers (§2.1) even under Kmax-deep loss (§3.1).
	// It implies every fill target up to Kmax for the current layers
	// (TestAddConditionMeetsFillTargets).
	if !AddCondition(c.rate, c.na, c.TotalBuf(), c.P.C, c.slope, c.P.Kmax) {
		return
	}
	c.na++
	c.bufs = append(c.bufs, 0)
	c.credits = append(c.credits, 0)
	c.shares = append(c.shares, 0)
	c.lastChange = now
	c.event(Event{Time: now, Kind: EvAddLayer, Layer: c.na - 1, Rate: c.rate})
}

// dropTop removes the highest layer, recording the efficiency metrics.
func (c *Controller) dropTop(now float64, critical bool) {
	if c.na <= 1 {
		return
	}
	total := c.TotalBuf()
	top := c.na - 1
	bufDrop := c.bufs[top]
	// A drop is due to poor distribution when the total buffering on hand
	// would have covered the recovery triangle, yet a layer had to go.
	required := TriangleArea(float64(c.na)*c.P.C-c.rate, c.slope)
	poor := total >= required && required > 0
	c.event(Event{
		Time: now, Kind: EvDropLayer, Layer: top, Rate: c.rate,
		BufDrop: bufDrop, BufTotal: total, PoorDist: poor, Critical: critical,
	})
	c.na--
	c.bufs = c.bufs[:c.na]
	c.credits = c.credits[:c.na]
	c.shares = c.shares[:c.na]
	c.lastChange = now
}

// computeShares performs the fine-grain inter-layer bandwidth allocation
// for the instant: filling surplus placement when R exceeds the
// consumption rate, reverse-path draining when it does not.
func (c *Controller) computeShares(now float64) {
	R := c.rate
	cons := 0.0
	if c.playing && !c.stalled {
		cons = c.P.C
	}
	total := cons * float64(c.na)

	if R >= total {
		// Filling phase: every consuming layer gets C; the surplus goes
		// to the layer the SendPacket scan selects. Past Kmax the scan is
		// extended (extraStates) so buffers keep absorbing bandwidth that
		// cannot yet become a new layer.
		for i := 0; i < c.na; i++ {
			c.shares[i] = cons
		}
		surplus := R - total
		if surplus > 0 {
			c.shares[c.fillLayer()] += surplus
		}
		return
	}

	// Draining phase.
	h := planHorizon
	need := (total - R) * h
	drains, unmet := c.drainPlan(need, cons*h)
	if unmet > 1e-9 {
		// Shortfall this horizon: count it toward the arrears (scaled to
		// the time actually elapsed) and only treat it as a critical
		// situation (§2.2) once it persists — a single infeasible plan
		// is usually a transient dip, and the ACK-based buffer estimate
		// ignores in-flight data anyway.
		c.arrears += unmet * (c.tickDt / h)
		tol := 0.1 * c.P.C
		for c.arrears > tol && unmet > 1e-9 && c.na > 1 {
			c.dropTop(now, true)
			c.arrears = 0
			total = cons * float64(c.na)
			if R >= total {
				c.computeShares(now)
				return
			}
			need = (total - R) * h
			drains, unmet = c.drainPlan(need, cons*h)
		}
	} else {
		c.arrears = 0
	}
	if unmet > 1e-9 && c.arrears > 0.1*c.P.C && c.na == 1 && c.playing && !c.stalled {
		// Base layer underflow: pause playback.
		c.stalled = true
		c.stallBegin = now
		c.event(Event{Time: now, Kind: EvStallStart, Rate: R})
		c.shares[0] = R
		return
	}
	for i := 0; i < c.na; i++ {
		c.shares[i] = cons - drains[i]/h
		if c.shares[i] < 0 {
			c.shares[i] = 0
		}
	}
}

// fillLayer picks the layer the filling surplus should extend, under
// the configured allocation policy.
func (c *Controller) fillLayer() int {
	switch c.P.Alloc {
	case AllocEqual:
		// Strawman: equalize per-layer buffering.
		best, min := 0, math.Inf(1)
		for i := 0; i < c.na; i++ {
			if c.bufs[i] < min {
				best, min = i, c.bufs[i]
			}
		}
		return best
	case AllocBase:
		// Strawman: everything to the base layer.
		return 0
	default:
		g := c.geom()
		layer, ok := g.fillTarget(c.bufs[:c.na], c.P.Kmax)
		if ok {
			return layer
		}
		// Kmax targets met. Before chasing the deeper states (whose
		// bands are bottom-heavy), keep a small protective reserve in
		// every layer — draining is rate-limited to C per layer, so an
		// empty top-layer buffer cannot be compensated by the base
		// layer's riches.
		reserve := protectSec * c.P.C
		for i := 0; i < c.na; i++ {
			if c.bufs[i] < reserve {
				return i
			}
		}
		layer, ok = g.fillTarget(c.bufs[:c.na], c.P.Kmax+extraStates)
		if !ok {
			layer = 0
		}
		return layer
	}
}

// drainPlan plans need bytes of draining, at most maxPerLayer per layer,
// down the optimal state ladder, or with no floors at all for the
// strawman policies (they have no notion of a maximally efficient
// path).
func (c *Controller) drainPlan(need, maxPerLayer float64) (drains []float64, unmet float64) {
	kmax := c.P.Kmax
	if c.P.Alloc != AllocOptimal {
		kmax = -1
	}
	if len(c.drainBuf) < 5*c.na {
		c.drainBuf = make([]float64, 5*c.na)
	}
	return c.geom().drain(c.drainBuf, c.bufs[:c.na], kmax, need, maxPerLayer)
}

// geom returns the formula terms for the current rate, slope and layer
// count, recomputed only when one of them has changed since the last
// call: the up to two SendPacket scans of one refresh and its drain
// walk share them.
func (c *Controller) geom() *geometry {
	if g := &c.geo; g.na != c.na || g.R != c.rate || g.S != c.slope {
		*g = newGeometry(c.rate, c.na, c.P.C, c.slope)
	}
	return &c.geo
}

func (c *Controller) safeSlope(s float64) float64 {
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		// A degenerate slope estimate would blow up the triangle areas;
		// fall back to something conservative: one C per second².
		return c.P.C
	}
	return s
}

// event counts a decision, into the running sums Stats reads and the
// attached instruments: the one place decisions are counted. It logs the
// decision too if the log is kept (KeepEvents).
func (c *Controller) event(e Event) {
	if c.keepEvents {
		if c.P.MaxEvents > 0 && len(c.Events) >= c.P.MaxEvents {
			// Keep the most recent half; amortized O(1) per event and
			// the slice capacity never exceeds the cap.
			n := copy(c.Events, c.Events[len(c.Events)-c.P.MaxEvents/2:])
			c.Events = c.Events[:n]
		}
		c.Events = append(c.Events, e)
	}
	ins := c.ins
	switch e.Kind {
	case EvAddLayer:
		c.tally.Adds++
		inc(ins.Adds)
	case EvDropLayer:
		c.tally.Drops++
		inc(ins.Drops)
		// Table 1's e; a drop with nothing buffered wasted nothing.
		if e.BufTotal > 0 {
			c.sumE += (e.BufTotal - e.BufDrop) / e.BufTotal
		} else {
			c.sumE++
		}
		if e.Critical {
			inc(ins.CriticalDrops)
		}
		if e.PoorDist {
			c.poorDrops++
			inc(ins.PoorDistDrops)
		}
	case EvBackoff:
		c.tally.Backoffs++
		inc(ins.Backoffs)
	case EvStallStart:
		c.tally.Stalls++
		inc(ins.Stalls)
	}
}
