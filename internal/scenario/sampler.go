package scenario

import (
	"fmt"

	"qav/internal/core"
	"qav/internal/sim"
	"qav/internal/tcp"
	"qav/internal/trace"
)

// The sampler is one ticker per flow engine, each on the tick
// recurrence t = 0, Δ, 2Δ, ... while t+Δ <= Duration. Sampling is part
// of the run's dynamics — every QA controller is ticked at every sample
// so consumption is current — so it runs for every config, and its
// cadence (cfg.SampleInterval) is part of the result. A ticker ticks and
// traces the flows on its engine. The bottleneck's queue.bytes and
// fluid.rate ride on the ticker of the engine that owns the link: in a
// serial run that is the one ticker, so a serial run takes one sample
// event per tick; a sharded run gives the bottleneck engine a ticker of
// its own.
//
// Two trace modes (cfg.MaxTraceFlows):
//
//   - 0, legacy: the first QA flow gets the full per-layer breakdown and
//     every RAP flow a rate series — exactly the series set the figures
//     dump.
//   - N > 0, fleet: per-flow series are capped at N per class (the
//     first QA flow keeps its full breakdown; further QA flows, RAP and
//     TCP flows get one rate series each up to the cap) and fleet-wide
//     aggregates are always emitted: fleet.qa.rate and fleet.rap.rate
//     (summed transmission rates), fleet.tcp.goodput (aggregate TCP
//     goodput over the last interval), and fleet.jain.tcp (Jain's
//     fairness index over cumulative per-flow TCP goodput). Trace cost
//     stays O(1) in the flow population.
//
// Fleet aggregates sum per-flow floats, and float addition is not
// associative, so tickers never partial-sum. Each ticker parks its
// flows' per-tick values in a ring slot indexed by global flow
// position, and fleetFold.add sums a slot in global flow order: the
// same additions, in the same order, on every topology. With one flow
// engine the ticker folds its own tick from a one-slot ring; with more,
// fleetCoordinator folds at each barrier the ticks every engine has
// finished.
//
// Every series is created before the run, in one order (trace.Set
// orders its TSV output by creation, and figure TSVs are the regression
// oracle), and written by exactly one ticker, on that ticker's clock:
// one time column per ticker (and one for the coordinator), ticked once
// per sample, so each series stores only its values. Clocks and values
// are pre-sized from Duration/SampleInterval, so sampling appends
// within capacity.

// qaSlot/rapSlot/tcpSlot bind one flow to its (optional) per-flow
// series and its global position within its class, for the ring.
type qaSlot struct {
	src    *QASource
	global int
	traces []*qaTrace    // first QA flow only: its full breakdown, then each follower's
	series *trace.Series // later QA flows, fleet mode, below the cap
}

type rapSlot struct {
	src    *RAPSource
	global int
	series *trace.Series
}

type tcpSlot struct {
	src    *tcp.Source
	global int
	series *trace.Series
	last   int64 // goodput at the previous tick, for series
}

// fleetSlot holds one tick's per-flow values, written by the tickers
// that own the flows and folded once every one of them has written.
type fleetSlot struct {
	qaRate  []float64
	rapRate []float64
	tcpGood []int64
}

// ticker samples one engine's flows. When sharded it is that engine's
// worker's private state during windows; the coordinator reads only
// the ring, and only at barriers.
type ticker struct {
	eng      *sim.Engine
	interval float64
	duration float64
	clock    *trace.Clock // every series this ticker writes is on it

	qas  []qaSlot
	raps []rapSlot
	tcps []tcpSlot

	// ring is the fleet scratch (nil in legacy trace mode); j counts
	// this ticker's ticks, which every ticker and the coordinator agree
	// on because they all run the same recurrence. fold is set when
	// this is the only flow engine's ticker: it folds its own ticks.
	ring []fleetSlot
	j    int
	fold *fleetFold

	// The bottleneck engine's ticker only.
	sQueue *trace.Series
	queue  sim.Queue
	fluid  *sim.Fluid
	sFluid *trace.Series

	tickFn func()
}

func (t *ticker) tick() {
	now := t.eng.Now()
	t.clock.Add(now)
	var slot *fleetSlot
	if t.ring != nil {
		slot = &t.ring[t.j%len(t.ring)]
	}
	for _, qs := range t.qas {
		q := qs.src
		// Tick every controller — consumption/playback dynamics —
		// whether or not the flow is traced; the driver ticks the
		// followers' controllers with its own.
		q.Tick(now)
		rate := q.Tr.Rate()
		for _, qt := range qs.traces {
			qt.sample(now, rate)
		}
		if qs.series != nil {
			qs.series.Add(now, rate)
		}
		if slot != nil {
			slot.qaRate[qs.global] = rate
		}
	}
	for _, rs := range t.raps {
		rate := rs.src.Tr.Rate()
		if rs.series != nil {
			rs.series.Add(now, rate)
		}
		if slot != nil {
			slot.rapRate[rs.global] = rate
		}
	}
	for i := range t.tcps {
		ts := &t.tcps[i]
		g := ts.src.GoodputBytes()
		if ts.series != nil {
			ts.series.Add(now, float64(g-ts.last)/t.interval)
			ts.last = g
		}
		if slot != nil {
			slot.tcpGood[ts.global] = g
		}
	}
	if t.sQueue != nil {
		t.sQueue.Add(now, float64(t.queue.Bytes()))
	}
	if t.sFluid != nil {
		t.sFluid.Add(now, t.fluid.Rate())
	}
	if t.fold != nil {
		t.fold.add(now, slot)
	}
	t.j++
	if now+t.interval <= t.duration {
		t.eng.After(t.interval, t.tickFn)
	}
}

// fleetFold turns one tick's ring slot into the fleet aggregate series.
type fleetFold struct {
	sQA, sRap, sTCP, sJain *trace.Series

	interval     float64
	nTCP         int
	lastTCPTotal int64
}

func (f *fleetFold) add(now float64, slot *fleetSlot) {
	// Global flow order: the one addition order.
	qaRate, rapRate := 0.0, 0.0
	for _, v := range slot.qaRate {
		qaRate += v
	}
	for _, v := range slot.rapRate {
		rapRate += v
	}
	f.sQA.Add(now, qaRate)
	f.sRap.Add(now, rapRate)
	// Aggregate TCP goodput over the last interval, and Jain's fairness
	// index over cumulative per-flow goodput.
	var total int64
	var sum, sumSq float64
	for _, g := range slot.tcpGood {
		total += g
		x := float64(g)
		sum += x
		sumSq += x * x
	}
	f.sTCP.Add(now, float64(total-f.lastTCPTotal)/f.interval)
	f.lastTCPTotal = total
	f.sJain.Add(now, jainIndex(sum, sumSq, f.nTCP))
}

// fleetCoordinator folds the ring at each barrier of a run with several
// flow engines, consuming exactly the ticks every engine has certainly
// executed (tick time strictly below the horizon; at the final barrier,
// at or below it).
type fleetCoordinator struct {
	*fleetFold
	ring     []fleetSlot
	duration float64
	clock    *trace.Clock // the fold's series are on it

	t    float64 // next unconsumed tick's time, on the tick recurrence
	j    int
	done bool
}

func (c *fleetCoordinator) atBarrier(hi float64, final bool) {
	for !c.done && (c.t < hi || (final && c.t <= hi)) {
		c.clock.Add(c.t)
		c.add(c.t, &c.ring[c.j%len(c.ring)])
		if c.t+c.interval <= c.duration {
			c.t += c.interval
			c.j++
		} else {
			c.done = true
		}
	}
}

// startTickers creates every series, builds the tickers and schedules
// them at t = 0 (after the flows, so the t = 0 tick lands after the
// t = 0 flow starts). Each follower's trace of the first QA flow goes
// in its own Result's set. It returns the coordinator's barrier
// callback, or nil when no coordinator is needed.
func startTickers(topo *topology, cfg *Config, res *Result, fols []*follower) func(hi float64, final bool) {
	// Samples land at 0, Δ, 2Δ, ... while now+Δ <= Duration, plus slack
	// for the float accumulation at the boundary.
	reserve := int(cfg.Duration/cfg.SampleInterval) + 2
	newTicker := func(e *sim.Engine) *ticker {
		return &ticker{eng: e, interval: cfg.SampleInterval, duration: cfg.Duration, clock: trace.NewClock(reserve)}
	}
	fleet := cfg.MaxTraceFlows > 0
	capped := func(n int) int {
		if fleet && n > cfg.MaxTraceFlows {
			return cfg.MaxTraceFlows
		}
		return n
	}

	n := len(topo.flows)
	ticks := make([]*ticker, n)
	for i, e := range topo.flows {
		ticks[i] = newTicker(e)
	}
	// Flow IDs are assigned in class order (QA, RAP, TCP) and flow i
	// runs on engine i mod n, so a class member's ticker follows from
	// its global class index. A flow that is neither traced nor summed
	// into the fleet aggregates is left out.
	for qi, q := range res.QASrcs {
		slot := qaSlot{src: q, global: qi}
		t := ticks[qi%n]
		if qi == 0 {
			slot.traces = []*qaTrace{newQATrace(on(res.Series, t.clock), cfg, q.Ctrl, q.SentByLayer, q.DeliveredByLayer)}
			for _, f := range fols {
				r := f.reps[0]
				slot.traces = append(slot.traces, newQATrace(on(f.res.Series, t.clock), &f.res.Cfg, r.Ctrl, r.SentByLayer, r.DeliveredByLayer))
			}
		} else if fleet && qi < capped(len(res.QASrcs)) {
			slot.series = on(res.Series, t.clock)(fmt.Sprintf("qa%d.rate", qi))
		}
		t.qas = append(t.qas, slot)
	}
	for ri, r := range res.RAPSrcs {
		slot := rapSlot{src: r, global: ri}
		t := ticks[(cfg.NumQA+ri)%n]
		if ri < capped(len(res.RAPSrcs)) {
			slot.series = on(res.Series, t.clock)(fmt.Sprintf("rap%d.rate", ri))
		}
		if slot.series != nil || fleet {
			t.raps = append(t.raps, slot)
		}
	}
	for ti, src := range res.TCPSrcs {
		slot := tcpSlot{src: src, global: ti}
		t := ticks[(cfg.NumQA+cfg.NumRAP+ti)%n]
		if fleet && ti < capped(len(res.TCPSrcs)) {
			slot.series = on(res.Series, t.clock)(fmt.Sprintf("tcp%d.rate", ti))
		}
		if slot.series != nil || fleet {
			t.tcps = append(t.tcps, slot)
		}
	}
	bt := ticks[0]
	if bt.eng != topo.bneck {
		bt = newTicker(topo.bneck)
		ticks = append(ticks, bt)
	}
	bt.sQueue, bt.queue = on(res.Series, bt.clock)("queue.bytes"), topo.queue
	if res.Fluid != nil {
		// Hybrid runs trace the background aggregate's modeled send rate
		// right after the queue.
		bt.fluid, bt.sFluid = res.Fluid, on(res.Series, bt.clock)("fluid.rate")
	}

	var coord *fleetCoordinator
	if fleet {
		// The aggregates are folded by the one flow engine's ticker, or by
		// the coordinator on a clock of its own.
		clock := ticks[0].clock
		if n > 1 {
			clock = trace.NewClock(reserve)
		}
		series := on(res.Series, clock)
		fold := &fleetFold{
			sQA:      series("fleet.qa.rate"),
			sRap:     series("fleet.rap.rate"),
			sTCP:     series("fleet.tcp.goodput"),
			sJain:    series("fleet.jain.tcp"),
			interval: cfg.SampleInterval,
			nTCP:     len(res.TCPSrcs),
		}
		ringLen := 1
		if n > 1 {
			// One slot per tick that can be outstanding at a barrier: the
			// ticks inside one lookahead window, plus slack for the
			// window's closed/open boundaries.
			ringLen = int(topo.lookahead/cfg.SampleInterval) + 2
		}
		ring := make([]fleetSlot, ringLen)
		if n == 1 {
			ticks[0].fold = fold
		} else {
			coord = &fleetCoordinator{fleetFold: fold, ring: ring, duration: cfg.Duration, clock: clock}
		}
		for i := range ring {
			ring[i] = fleetSlot{
				qaRate:  make([]float64, len(res.QASrcs)),
				rapRate: make([]float64, len(res.RAPSrcs)),
				tcpGood: make([]int64, len(res.TCPSrcs)),
			}
		}
		for _, t := range ticks[:n] {
			t.ring = ring
		}
	}

	for _, t := range ticks {
		if len(t.qas)+len(t.raps)+len(t.tcps) > 0 || t.sQueue != nil {
			t.tickFn = t.tick
			t.eng.At(0, t.tickFn)
		}
	}
	if coord == nil {
		return nil
	}
	return coord.atBarrier
}

// on returns a function that creates series in set on clock c, with
// room for every tick c has reserved. It is the one place the sampler
// creates a series.
func on(set *trace.Set, c *trace.Clock) func(string) *trace.Series {
	return func(name string) *trace.Series { return set.OnClock(name, c) }
}

// traceLayers is how many layers the QA trace records per-layer series
// for: Fig 11 plots four.
const traceLayers = 4

// layerSeries bundles one video layer's five trace series (Fig 11's
// per-layer breakdown).
type layerSeries struct {
	buf, share, drain, tx, rx *trace.Series
}

// qaTrace is the first QA flow's full per-layer trace of one
// controller, the flow's or a follower's, read with the per-layer byte
// counts kept beside it: rate, consumption, active layers, total
// buffering, and the five per-layer series. Creation order of its series
// is load-bearing (trace.Set is creation-ordered and figure TSVs are the
// regression oracle): qa.rate, qa.consumption, qa.layers, qa.buftotal,
// then buf/share/drain/tx/rx per layer.
type qaTrace struct {
	sRate, sCons, sLayers, sBufTotal *trace.Series
	perLayer                         [traceLayers]layerSeries

	ctrl                    *core.Controller
	sent, delivered         []int64 // cumulative bytes per layer
	lastSent, lastDelivered [traceLayers]int64

	interval float64
	qaC      float64
}

func newQATrace(series func(string) *trace.Series, cfg *Config, ctrl *core.Controller, sent, delivered []int64) *qaTrace {
	qt := &qaTrace{
		ctrl:      ctrl,
		sent:      sent,
		delivered: delivered,
		sRate:     series("qa.rate"),
		sCons:     series("qa.consumption"),
		sLayers:   series("qa.layers"),
		sBufTotal: series("qa.buftotal"),
		interval:  cfg.SampleInterval,
		qaC:       cfg.QA.C,
	}
	for l := range qt.perLayer {
		qt.perLayer[l] = layerSeries{
			buf:   series(fmt.Sprintf("qa.buf.l%d", l)),
			share: series(fmt.Sprintf("qa.share.l%d", l)),
			drain: series(fmt.Sprintf("qa.drain.l%d", l)),
			tx:    series(fmt.Sprintf("qa.tx.l%d", l)),
			rx:    series(fmt.Sprintf("qa.rx.l%d", l)),
		}
	}
	return qt
}

// sample records one tick at virtual time now, the flow's rate being
// rate. The caller has already ticked the controller.
func (qt *qaTrace) sample(now, rate float64) {
	c, na := qt.ctrl, qt.ctrl.ActiveLayers()
	qt.sRate.Add(now, rate)
	qt.sCons.Add(now, c.ConsumptionRate())
	qt.sLayers.Add(now, float64(na))
	qt.sBufTotal.Add(now, c.TotalBuf())
	for l := range qt.perLayer {
		var buf, share, drain float64
		if l < na {
			buf, share = c.Layer(l)
			if c.Playing() {
				drain = qt.qaC - share
				if drain < 0 {
					drain = 0
				}
			}
		}
		var sent, delivered int64
		if l < len(qt.sent) {
			sent = qt.sent[l]
		}
		if l < len(qt.delivered) {
			delivered = qt.delivered[l]
		}
		txRate := float64(sent-qt.lastSent[l]) / qt.interval
		rxRate := float64(delivered-qt.lastDelivered[l]) / qt.interval
		qt.lastSent[l] = sent
		qt.lastDelivered[l] = delivered
		qt.perLayer[l].buf.Add(now, buf)
		qt.perLayer[l].share.Add(now, share)
		qt.perLayer[l].drain.Add(now, drain)
		qt.perLayer[l].tx.Add(now, txRate)
		qt.perLayer[l].rx.Add(now, rxRate)
	}
}
