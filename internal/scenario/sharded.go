package scenario

import (
	"fmt"

	"qav/internal/sim"
	"qav/internal/tcp"
	"qav/internal/trace"
)

// This file is the scenario layer's sharded execution path: the same
// simulation as the serial Run, partitioned across cfg.Shards engines
// (sim.ShardedDumbbell) purely for wall-clock speed. The contract —
// enforced by the differential suite in sharded_test.go — is that a
// run at any shard count produces the identical RunReport and trace
// series, bit for bit. Three pieces make that hold:
//
//   - Flows are placed round-robin (flowID % flowShards) but
//     constructed in exactly the serial order, so flows starting at the
//     same staggered instant fire in flow-ID order on their shards just
//     as they would interleave serially (cross-flow ordering only
//     matters at the shared bottleneck, where the mailbox merge
//     restores it; see sim.ShardedDumbbell).
//
//   - Sampling is distributed: each shard ticks its own QA controllers
//     and writes its own flows' trace series on the exact serial tick
//     recurrence (t += Δ while t+Δ <= Duration), the bottleneck shard
//     writes queue.bytes, and every series keeps a single writer. All
//     series are created before Run, in the serial sampler's creation
//     order, because trace.Set orders its TSV output by creation.
//
//   - Fleet aggregates sum per-flow floats, and float addition is not
//     associative — so shards never partial-sum. Each ticker parks its
//     flows' per-tick values in a scratch ring indexed by global flow
//     position, and the coordinator folds them in global flow order at
//     each barrier: the identical additions, in the identical order,
//     as the serial sampler's loop over the sources.

// runSharded executes an already-normalized config across cfg.Shards
// engines. Run dispatches here for Shards > 1.
func runSharded(cfg Config) (*Result, error) {
	if cfg.SchedRec != nil {
		return nil, fmt.Errorf("scenario: SchedRec capture needs the serial engine (Shards <= 1)")
	}
	if cfg.AccessDelay <= 0 || cfg.LinkDelay <= 0 {
		return nil, fmt.Errorf("scenario: Shards > 1 needs positive AccessDelay and LinkDelay (they bound the conservative lookahead)")
	}
	flowShards := cfg.Shards - 1 // one engine is the bottleneck's

	var queueFn func(*sim.Engine) sim.Queue
	if cfg.UseRED {
		queueFn = func(e *sim.Engine) sim.Queue {
			return sim.NewRED(sim.REDConfig{
				LimitBytes:  cfg.QueueBytes,
				MeanPktSize: cfg.PacketSize,
				Seed:        cfg.REDSeed,
				// The RED average decays against the bottleneck shard's
				// clock, exactly as it does against the serial engine's.
				Now:      e.Now,
				LinkRate: cfg.BottleneckRate,
			})
		}
	}
	// Hybrid runs wrap the bottleneck queue in the shared-buffer
	// coupling exactly as the serial path does; the wrapper (and the
	// fluid aggregate below) live on the bottleneck shard, whose engine
	// owns the link and queue.
	var fq *sim.FluidQueue
	if cfg.FluidTCP+cfg.FluidRAP > 0 {
		innerFn := queueFn
		queueFn = func(e *sim.Engine) sim.Queue {
			var inner sim.Queue
			if innerFn != nil {
				inner = innerFn(e)
			} else {
				inner = sim.NewDropTail(cfg.QueueBytes)
			}
			fq = sim.NewFluidQueue(inner, cfg.QueueBytes)
			return fq
		}
	}
	d := sim.NewShardedDumbbell(flowShards, sim.DumbbellConfig{
		Rate:        cfg.BottleneckRate,
		Delay:       cfg.LinkDelay,
		AccessDelay: cfg.AccessDelay,
		QueueBytes:  cfg.QueueBytes,
	}, queueFn)
	baseRTT := d.BaseRTT()

	res := &Result{Cfg: cfg, Series: trace.NewSet(), Metrics: cfg.Metrics}
	if fq != nil {
		// Before any flow, matching the serial construction order.
		res.Fluid = newFluid(&cfg, d.BneckEngine(), d.Bneck(), fq, baseRTT)
	}
	nflows, err := buildFlows(cfg, res, baseRTT, func(flowID int) (*sim.Engine, sim.Network) {
		s := flowID % flowShards
		d.AssignFlow(flowID, s)
		return d.FlowEngine(s), d.FlowNet(s)
	})
	if err != nil {
		return nil, err
	}

	if reg := cfg.Metrics; reg != nil {
		d.Instrument(reg)
		d.Bneck().InstrumentFlows(reg, nflows)
		instrumentSources(reg, res)
		instrumentFluid(reg, res)
	}
	atBarrier := startShardedSampler(d, cfg, res)

	d.Run(cfg.Duration, atBarrier)

	finishResult(res)
	return res, nil
}

// qaSlot/rapSlot/tcpSlot bind one flow to its (optional) per-flow
// series and its global position within its class, for the scratch
// ring.
type qaSlot struct {
	src    *QASource
	global int
	full   *qaTrace      // first QA flow only: the full breakdown
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
}

// fleetSlot holds one tick's per-flow values, written by the owning
// shards during a window and folded by the coordinator at the next
// barrier.
type fleetSlot struct {
	qaRate  []float64
	rapRate []float64
	tcpGood []int64
}

// shardTicker samples one shard's flows on the serial tick recurrence.
// It is that shard's worker's private state during windows; the
// coordinator only reads the scratch ring it shares, and only at
// barriers.
type shardTicker struct {
	eng      *sim.Engine
	interval float64
	duration float64

	qas  []qaSlot
	raps []rapSlot
	tcps []tcpSlot

	lastGoodput []int64 // per traced TCP flow, parallel to tcps with series

	// ring is the fleet scratch (nil in legacy trace mode); j counts
	// this shard's ticks, which every shard and the coordinator agree
	// on because they all run the same recurrence.
	ring []fleetSlot
	j    int

	// Bottleneck shard only.
	sQueue *trace.Series
	queue  sim.Queue
	fluid  *sim.Fluid
	sFluid *trace.Series

	tickFn func()
}

func (t *shardTicker) hasWork() bool {
	if len(t.qas) > 0 || t.sQueue != nil {
		return true
	}
	if t.ring != nil {
		return len(t.raps) > 0 || len(t.tcps) > 0
	}
	for _, r := range t.raps {
		if r.series != nil {
			return true
		}
	}
	for _, s := range t.tcps {
		if s.series != nil {
			return true
		}
	}
	return false
}

func (t *shardTicker) tick() {
	now := t.eng.Now()
	var slot *fleetSlot
	if t.ring != nil {
		slot = &t.ring[t.j%len(t.ring)]
	}
	for _, qs := range t.qas {
		q := qs.src
		// Tick every controller — consumption/playback dynamics —
		// whether or not the flow is traced.
		q.Ctrl.Tick(now, q.Tr.Rate(), q.Tr.ConservativeSlope())
		if qs.full != nil {
			qs.full.sample(now, q)
		} else if qs.series != nil {
			qs.series.Add(now, q.Tr.Rate())
		}
		if slot != nil {
			slot.qaRate[qs.global] = q.Tr.Rate()
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
	ti := 0
	for _, ts := range t.tcps {
		g := ts.src.GoodputBytes()
		if ts.series != nil {
			ts.series.Add(now, float64(g-t.lastGoodput[ti])/t.interval)
			t.lastGoodput[ti] = g
			ti++
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
	t.j++
	if now+t.interval <= t.duration {
		t.eng.After(t.interval, t.tickFn)
	}
}

// fleetCoordinator folds the scratch ring into the fleet aggregate
// series at each barrier, consuming exactly the ticks every shard has
// certainly executed (tick time strictly below the horizon; at the
// final barrier, at or below it).
type fleetCoordinator struct {
	sQA, sRap, sTCP, sJain *trace.Series

	ring     []fleetSlot
	interval float64
	duration float64
	nTCP     int

	t            float64 // next unconsumed tick's time, serial recurrence
	j            int
	done         bool
	lastTCPTotal int64
}

func (c *fleetCoordinator) atBarrier(hi float64, final bool) {
	for !c.done && (c.t < hi || (final && c.t <= hi)) {
		slot := &c.ring[c.j%len(c.ring)]
		// Global flow order, the serial sampler's addition order.
		qaRate, rapRate := 0.0, 0.0
		for _, v := range slot.qaRate {
			qaRate += v
		}
		for _, v := range slot.rapRate {
			rapRate += v
		}
		c.sQA.Add(c.t, qaRate)
		c.sRap.Add(c.t, rapRate)
		var total int64
		var sum, sumSq float64
		for _, g := range slot.tcpGood {
			total += g
			x := float64(g)
			sum += x
			sumSq += x * x
		}
		c.sTCP.Add(c.t, float64(total-c.lastTCPTotal)/c.interval)
		c.lastTCPTotal = total
		c.sJain.Add(c.t, jainIndex(sum, sumSq, c.nTCP))
		if c.t+c.interval <= c.duration {
			c.t += c.interval
			c.j++
		} else {
			c.done = true
		}
	}
}

// startShardedSampler builds the distributed sampler: per-shard
// tickers (scheduled on their engines before Run, so the t=0 tick
// lands after the t=0 flow starts, like the serial sampler), the
// bottleneck shard's queue.bytes ticker, and — in fleet trace mode —
// the coordinator whose atBarrier callback it returns (nil otherwise).
//
// Series are created here, on the construction goroutine, in exactly
// startSampler's order; each is then written by exactly one shard.
func startShardedSampler(d *sim.ShardedDumbbell, cfg Config, res *Result) func(hi float64, final bool) {
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

	n := d.NumFlowShards()
	ticks := make([]*shardTicker, n)
	for i := range ticks {
		ticks[i] = &shardTicker{
			eng:      d.FlowEngine(i),
			interval: cfg.SampleInterval,
			duration: cfg.Duration,
		}
	}
	// Flow IDs are assigned in class order (QA, RAP, TCP), so a class
	// member's owner shard follows from its global class index.
	qaOwner := func(i int) *shardTicker { return ticks[i%n] }
	rapOwner := func(i int) *shardTicker { return ticks[(cfg.NumQA+i)%n] }
	tcpOwner := func(i int) *shardTicker { return ticks[(cfg.NumQA+cfg.NumRAP+i)%n] }

	// Series creation below mirrors startSampler's order exactly.
	var full *qaTrace
	if res.QASrc != nil {
		full = newQATrace(series, &cfg)
	}
	for qi, q := range res.QASrcs {
		slot := qaSlot{src: q, global: qi}
		if qi == 0 {
			slot.full = full
		} else if fleet && qi < capped(len(res.QASrcs)) {
			slot.series = series(fmt.Sprintf("qa%d.rate", qi))
		}
		t := qaOwner(qi)
		t.qas = append(t.qas, slot)
	}
	nRapTraced := capped(len(res.RAPSrcs))
	for ri, r := range res.RAPSrcs {
		slot := rapSlot{src: r, global: ri}
		if ri < nRapTraced {
			slot.series = series(fmt.Sprintf("rap%d.rate", ri))
		}
		t := rapOwner(ri)
		t.raps = append(t.raps, slot)
	}
	for ti, src := range res.TCPSrcs {
		slot := tcpSlot{src: src, global: ti}
		if fleet && ti < capped(len(res.TCPSrcs)) {
			slot.series = series(fmt.Sprintf("tcp%d.rate", ti))
		}
		t := tcpOwner(ti)
		t.tcps = append(t.tcps, slot)
		if slot.series != nil {
			t.lastGoodput = append(t.lastGoodput, 0)
		}
	}
	bneckTick := &shardTicker{
		eng:      d.BneckEngine(),
		interval: cfg.SampleInterval,
		duration: cfg.Duration,
		sQueue:   series("queue.bytes"),
		queue:    d.Queue(),
	}
	if res.Fluid != nil {
		// Mirrors the serial sampler's creation order: fluid.rate
		// directly after queue.bytes, before the fleet aggregates.
		bneckTick.fluid = res.Fluid
		bneckTick.sFluid = series("fluid.rate")
	}

	var coord *fleetCoordinator
	if fleet {
		coord = &fleetCoordinator{
			sQA:      series("fleet.qa.rate"),
			sRap:     series("fleet.rap.rate"),
			sTCP:     series("fleet.tcp.goodput"),
			sJain:    series("fleet.jain.tcp"),
			interval: cfg.SampleInterval,
			duration: cfg.Duration,
			nTCP:     len(res.TCPSrcs),
		}
		// The ring needs one slot per tick that can be outstanding at a
		// barrier: the ticks inside one lookahead window, plus slack for
		// the window's closed/open boundaries.
		ringLen := int(d.Lookahead()/cfg.SampleInterval) + 2
		coord.ring = make([]fleetSlot, ringLen)
		for i := range coord.ring {
			coord.ring[i] = fleetSlot{
				qaRate:  make([]float64, len(res.QASrcs)),
				rapRate: make([]float64, len(res.RAPSrcs)),
				tcpGood: make([]int64, len(res.TCPSrcs)),
			}
		}
		for _, t := range ticks {
			t.ring = coord.ring
		}
	}

	for _, t := range ticks {
		if t.hasWork() {
			t.tickFn = t.tick
			t.eng.At(0, t.tickFn)
		}
	}
	bneckTick.tickFn = bneckTick.tick
	bneckTick.eng.At(0, bneckTick.tickFn)

	if coord == nil {
		return nil
	}
	return coord.atBarrier
}
