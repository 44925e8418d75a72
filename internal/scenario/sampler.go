package scenario

import (
	"fmt"

	"qav/internal/sim"
	"qav/internal/trace"
)

// startSampler schedules the periodic trace sampler on eng. Sampling is
// part of the run's dynamics — every QA controller is ticked at every
// sample so consumption is current — so the sampler must run for every
// config, and its cadence (cfg.SampleInterval) is part of the result.
//
// Series handles and per-layer counters are hoisted out of the closure:
// resolving fmt.Sprintf names through the set's map on every 0.1 s tick
// for every layer dominated the sample cost. Every series is pre-sized
// from Duration/SampleInterval, so steady-state sampling appends within
// capacity and never regrows.
//
// Two trace modes (cfg.MaxTraceFlows):
//
//   - 0, legacy: the first QA flow gets the full per-layer breakdown and
//     every RAP flow a rate series — exactly the series set the figures
//     dump, byte-identical to the pre-fleet sampler.
//   - N > 0, fleet: per-flow series are capped at N per class (the
//     first QA flow keeps its full breakdown; further QA flows, RAP and
//     TCP flows get one rate series each up to the cap) and fleet-wide
//     aggregates are always emitted: fleet.qa.rate and fleet.rap.rate
//     (summed transmission rates), fleet.tcp.goodput (aggregate TCP
//     goodput over the last interval), and fleet.jain.tcp (Jain's
//     fairness index over cumulative per-flow TCP goodput). Trace cost
//     stays O(1) in the flow population.
func startSampler(eng *sim.Engine, net *sim.Dumbbell, cfg Config, res *Result) {
	// Samples land at 0, Δ, 2Δ, ... while now+Δ <= Duration, plus slack
	// for the float accumulation at the boundary.
	reserve := int(cfg.Duration/cfg.SampleInterval) + 2
	series := func(name string) *trace.Series {
		s := res.Series.Series(name)
		s.Reserve(reserve)
		return s
	}

	fleet := cfg.MaxTraceFlows > 0
	capped := func(n int) int {
		if fleet && n > cfg.MaxTraceFlows {
			return cfg.MaxTraceFlows
		}
		return n
	}

	var full *qaTrace
	if res.QASrc != nil {
		full = newQATrace(series, &cfg)
	}
	// Rate series for QA flows beyond the first, fleet mode only (the
	// first flow's rate is qa.rate above).
	var sQA []*trace.Series
	if fleet {
		for i := 1; i < capped(len(res.QASrcs)); i++ {
			sQA = append(sQA, series(fmt.Sprintf("qa%d.rate", i)))
		}
	}
	sRap := make([]*trace.Series, capped(len(res.RAPSrcs)))
	for i := range sRap {
		sRap[i] = series(fmt.Sprintf("rap%d.rate", i))
	}
	var sTCP []*trace.Series
	if fleet {
		sTCP = make([]*trace.Series, capped(len(res.TCPSrcs)))
		for i := range sTCP {
			sTCP[i] = series(fmt.Sprintf("tcp%d.rate", i))
		}
	}
	sQueue := series("queue.bytes")
	// Hybrid runs trace the background aggregate's modeled send rate
	// right after the queue series (creation order is load-bearing: the
	// sharded sampler mirrors it).
	var sFluid *trace.Series
	if res.Fluid != nil {
		sFluid = series("fluid.rate")
	}

	var sFleetQA, sFleetRap, sFleetTCP, sJain *trace.Series
	var lastTCPTotal int64
	var lastGoodput []int64
	if fleet {
		sFleetQA = series("fleet.qa.rate")
		sFleetRap = series("fleet.rap.rate")
		sFleetTCP = series("fleet.tcp.goodput")
		sJain = series("fleet.jain.tcp")
		lastGoodput = make([]int64, len(sTCP))
	}

	var sample func()
	sample = func() {
		now := eng.Now()
		for qi, q := range res.QASrcs {
			// Tick every controller — consumption/playback dynamics —
			// whether or not the flow is traced.
			q.Ctrl.Tick(now, q.Tr.Rate(), q.Tr.ConservativeSlope())
			if qi == 0 {
				full.sample(now, q)
			} else if qi-1 < len(sQA) {
				sQA[qi-1].Add(now, q.Tr.Rate())
			}
		}
		for i, r := range res.RAPSrcs {
			if i < len(sRap) {
				sRap[i].Add(now, r.Tr.Rate())
			}
		}
		for i, s := range sTCP {
			good := res.TCPSrcs[i].GoodputBytes()
			s.Add(now, float64(good-lastGoodput[i])/cfg.SampleInterval)
			lastGoodput[i] = good
		}
		sQueue.Add(now, float64(net.Q.Bytes()))
		if sFluid != nil {
			sFluid.Add(now, res.Fluid.Rate())
		}
		if fleet {
			qaRate, rapRate := 0.0, 0.0
			for _, q := range res.QASrcs {
				qaRate += q.Tr.Rate()
			}
			for _, r := range res.RAPSrcs {
				rapRate += r.Tr.Rate()
			}
			sFleetQA.Add(now, qaRate)
			sFleetRap.Add(now, rapRate)
			// Aggregate TCP goodput over the last interval, and Jain's
			// fairness index over cumulative per-flow goodput:
			// (Σx)² / (n·Σx²) — 1.0 is a perfectly even split.
			var total int64
			var sum, sumSq float64
			for _, t := range res.TCPSrcs {
				g := t.GoodputBytes()
				total += g
				x := float64(g)
				sum += x
				sumSq += x * x
			}
			sFleetTCP.Add(now, float64(total-lastTCPTotal)/cfg.SampleInterval)
			lastTCPTotal = total
			sJain.Add(now, jainIndex(sum, sumSq, len(res.TCPSrcs)))
		}
		if now+cfg.SampleInterval <= cfg.Duration {
			eng.After(cfg.SampleInterval, sample)
		}
	}
	eng.At(0, sample)
}

// traceLayers is how many layers the QA trace records per-layer series
// for: Fig 11 plots four.
const traceLayers = 4

// layerSeries bundles one video layer's five trace series (Fig 11's
// per-layer breakdown).
type layerSeries struct {
	buf, share, drain, tx, rx *trace.Series
}

// qaTrace is the first QA flow's full per-layer trace: rate,
// consumption, active layers, total buffering, and the five per-layer
// series. It is extracted from the sampler body so the serial sampler
// and the sharded per-shard ticker record byte-identical values from
// one implementation. Creation order of its series is load-bearing
// (trace.Set is creation-ordered and figure TSVs are the regression
// oracle): qa.rate, qa.consumption, qa.layers, qa.buftotal, then
// buf/share/drain/tx/rx per layer.
type qaTrace struct {
	sRate, sCons, sLayers, sBufTotal *trace.Series
	perLayer                         [traceLayers]layerSeries

	lastSent, lastDelivered [traceLayers]int64

	interval float64
	qaC      float64
}

func newQATrace(series func(string) *trace.Series, cfg *Config) *qaTrace {
	qt := &qaTrace{
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

// sample records one tick for q at virtual time now. The caller has
// already ticked q's controller.
func (qt *qaTrace) sample(now float64, q *QASource) {
	qt.sRate.Add(now, q.Tr.Rate())
	qt.sCons.Add(now, q.Ctrl.ConsumptionRate())
	qt.sLayers.Add(now, float64(q.Ctrl.ActiveLayers()))
	qt.sBufTotal.Add(now, q.Ctrl.TotalBuf())
	bufs := q.Ctrl.Buffers()
	shares := q.Ctrl.Shares()
	for l := range qt.perLayer {
		var buf, share, drain float64
		if l < len(bufs) {
			buf = bufs[l]
			share = shares[l]
			if q.Ctrl.Playing() {
				drain = qt.qaC - share
				if drain < 0 {
					drain = 0
				}
			}
		}
		var sent, delivered int64
		if l < len(q.SentByLayer) {
			sent = q.SentByLayer[l]
		}
		if l < len(q.DeliveredByLayer) {
			delivered = q.DeliveredByLayer[l]
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
