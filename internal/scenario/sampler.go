package scenario

import (
	"fmt"

	"qav/internal/core"
	"qav/internal/sim"
	"qav/internal/tcp"
	"qav/internal/trace"
)

// The sampler is one ticker on the run's engine, on the tick recurrence
// t = 0, Δ, 2Δ, ... while t+Δ <= Duration. Sampling is part of the
// run's dynamics — every QA controller is ticked at every sample so
// consumption is current — so it runs for every config, and its cadence
// (cfg.SampleInterval) is part of the result. Each tick ticks and
// traces the flows, then the bottleneck's queue.bytes and fluid.rate:
// one sample event per tick.
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
// associative, so a tick adds them in global flow order: the ticker
// holds each class's flows in that order.
//
// Every series is created before the run, in one order (trace.Set
// orders its TSV output by creation, and figure TSVs are the regression
// oracle), on the ticker's clock: one time column, ticked once per
// sample, so each series stores only its values. The clock and values
// are pre-sized from Duration/SampleInterval, so sampling appends
// within capacity.
//
// An untraced run (Config.untraced, RunEach's untraced configs) keeps
// the ticks and nothing else: no clock, no series, no fleet aggregates.
// Its tick only ticks the QA controllers, so it runs what a traced run
// runs, and its reports, which read counters and not series, are the
// same. A traced run traces only its traced followers.

// qaSlot/rapSlot/tcpSlot bind one flow to its (optional) per-flow
// series.
type qaSlot struct {
	src    *QASource
	traces []*qaTrace    // first QA flow only: its full breakdown, then each follower's
	series *trace.Series // later QA flows, fleet mode, below the cap
}

type rapSlot struct {
	src    *RAPSource
	series *trace.Series
}

type tcpSlot struct {
	src    *tcp.Source
	series *trace.Series
	last   int64 // goodput at the previous tick, for series
}

// ticker samples the run's flows and its bottleneck.
type ticker struct {
	eng      *sim.Engine
	interval float64
	duration float64
	clock    *trace.Clock // every series the ticker writes is on it; nil untraced

	qas  []qaSlot
	raps []rapSlot
	tcps []tcpSlot
	fold *fleetFold // fleet mode only

	sQueue *trace.Series
	queue  sim.Queue
	fluid  *sim.Fluid
	sFluid *trace.Series

	tickFn func()
}

func (t *ticker) tick() {
	now := t.eng.Now()
	traced := t.clock != nil
	if traced {
		t.clock.Add(now)
	}
	qaRate := 0.0
	for _, qs := range t.qas {
		q := qs.src
		// Tick every controller — consumption/playback dynamics —
		// whether or not the flow is traced; the driver ticks the
		// followers' controllers with its own.
		q.Tick(now)
		if !traced {
			continue
		}
		rate := q.Tr.Rate()
		for _, qt := range qs.traces {
			qt.sample(now, rate)
		}
		if qs.series != nil {
			qs.series.Add(now, rate)
		}
		qaRate += rate
	}
	if traced {
		t.sample(now, qaRate)
	}
	if now+t.interval <= t.duration {
		t.eng.After(t.interval, t.tickFn)
	}
}

// sample traces the tick at now after the QA flows, whose summed rate is
// qaRate: the RAP and TCP flows, the bottleneck and the fleet
// aggregates.
func (t *ticker) sample(now, qaRate float64) {
	rapRate := 0.0
	for _, rs := range t.raps {
		rate := rs.src.Tr.Rate()
		if rs.series != nil {
			rs.series.Add(now, rate)
		}
		rapRate += rate
	}
	// Aggregate TCP goodput, and the sums of Jain's fairness index over
	// cumulative per-flow goodput.
	var tcpTotal int64
	var sum, sumSq float64
	for i := range t.tcps {
		ts := &t.tcps[i]
		g := ts.src.GoodputBytes()
		if ts.series != nil {
			ts.series.Add(now, float64(g-ts.last)/t.interval)
			ts.last = g
		}
		tcpTotal += g
		x := float64(g)
		sum += x
		sumSq += x * x
	}
	t.sQueue.Add(now, float64(t.queue.Bytes()))
	if t.sFluid != nil {
		t.sFluid.Add(now, t.fluid.Rate())
	}
	if f := t.fold; f != nil {
		f.sQA.Add(now, qaRate)
		f.sRap.Add(now, rapRate)
		f.sTCP.Add(now, float64(tcpTotal-f.lastTCPTotal)/t.interval)
		f.lastTCPTotal = tcpTotal
		f.sJain.Add(now, jainIndex(sum, sumSq, len(t.tcps)))
	}
}

// fleetFold is the fleet aggregate series.
type fleetFold struct {
	sQA, sRap, sTCP, sJain *trace.Series
	lastTCPTotal           int64
}

// startTicker builds the ticker, creating every series unless cfg is
// untraced, and schedules it at t = 0 on net's engine (after the flows,
// so the t = 0 tick lands after the t = 0 flow starts). Each traced
// follower's trace of the first QA flow goes in its own Result's set.
func startTicker(net *sim.Dumbbell, cfg *Config, res *Result, fols []*follower) {
	t := &ticker{eng: net.Eng, interval: cfg.SampleInterval, duration: cfg.Duration}
	t.tickFn = t.tick
	net.Eng.At(0, t.tickFn)
	if cfg.untraced {
		for _, q := range res.QASrcs {
			t.qas = append(t.qas, qaSlot{src: q})
		}
		return
	}
	// Samples land at 0, Δ, 2Δ, ... while now+Δ <= Duration, plus slack
	// for the float accumulation at the boundary.
	t.clock = trace.NewClock(int(cfg.Duration/cfg.SampleInterval) + 2)
	series := on(res.Series, t.clock)
	fleet := cfg.MaxTraceFlows > 0

	// A flow that is neither traced nor summed into the fleet
	// aggregates is left out.
	for qi, q := range res.QASrcs {
		slot := qaSlot{src: q}
		if qi == 0 {
			slot.traces = []*qaTrace{newQATrace(series, cfg, q.Ctrl, q.SentByLayer, q.DeliveredByLayer)}
			for _, f := range fols {
				if f.res.Cfg.untraced {
					continue
				}
				r := f.reps[0]
				slot.traces = append(slot.traces, newQATrace(on(f.res.Series, t.clock), &f.res.Cfg, r.Ctrl, r.SentByLayer, r.DeliveredByLayer))
			}
		} else if fleet && qi < cfg.traceCap(len(res.QASrcs)) {
			slot.series = series(fmt.Sprintf("qa%d.rate", qi))
		}
		t.qas = append(t.qas, slot)
	}
	for ri, r := range res.RAPSrcs {
		slot := rapSlot{src: r}
		if ri < cfg.traceCap(len(res.RAPSrcs)) {
			slot.series = series(fmt.Sprintf("rap%d.rate", ri))
		}
		if slot.series != nil || fleet {
			t.raps = append(t.raps, slot)
		}
	}
	for ti, src := range res.TCPSrcs {
		slot := tcpSlot{src: src}
		if fleet && ti < cfg.traceCap(len(res.TCPSrcs)) {
			slot.series = series(fmt.Sprintf("tcp%d.rate", ti))
		}
		if slot.series != nil || fleet {
			t.tcps = append(t.tcps, slot)
		}
	}
	t.sQueue, t.queue = series("queue.bytes"), net.Q
	if res.Fluid != nil {
		// Hybrid runs trace the background aggregate's modeled send rate
		// right after the queue.
		t.fluid, t.sFluid = res.Fluid, series("fluid.rate")
	}
	if fleet {
		t.fold = &fleetFold{
			sQA:   series("fleet.qa.rate"),
			sRap:  series("fleet.rap.rate"),
			sTCP:  series("fleet.tcp.goodput"),
			sJain: series("fleet.jain.tcp"),
		}
	}
}

// traceCap is the one rule for which flows get per-flow outputs, the
// sampler's series and the bottleneck's queue.delay.f<id> histograms:
// the first traceCap(n) of a class's n flows. A fleet run caps each
// class at MaxTraceFlows; a legacy run keeps every flow.
func (cfg *Config) traceCap(n int) int {
	if cfg.MaxTraceFlows > 0 && n > cfg.MaxTraceFlows {
		return cfg.MaxTraceFlows
	}
	return n
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
