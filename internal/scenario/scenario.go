package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"qav/internal/cbr"
	"qav/internal/core"
	"qav/internal/flow"
	"qav/internal/metrics"
	"qav/internal/sim"
	"qav/internal/tcp"
	"qav/internal/trace"
	"qav/internal/transport"
	"qav/internal/transport/delay"
	"qav/internal/transport/greedy"
)

// Config describes one evaluation run. The zero value is not valid; use
// Preset (or MustPreset) or fill everything explicitly, then Normalize.
type Config struct {
	Name string

	// Topology.
	BottleneckRate float64 // bytes/s
	LinkDelay      float64 // bottleneck one-way propagation, seconds
	AccessDelay    float64 // per-source access delay, seconds
	QueueBytes     int     // bottleneck buffer
	UseRED         bool    // RED instead of DropTail at the bottleneck
	REDSeed        int64

	// Traffic mix.
	PacketSize   int
	NumTCP       int
	NumRAP       int     // plain RAP flows (excluding the QA flows)
	NumQA        int     // QA flows
	FineGrainRAP bool    // use the RAP variant with fine-grain adaptation
	CBRRate      float64 // bytes/s; 0 = no CBR source
	CBRStart     float64
	CBRStop      float64

	// StartSeed, when nonzero, moves each QA, RAP and TCP flow's start
	// later by a uniform draw in [0, 1 s), drawn in flow-ID order from
	// this seed: one sample of the test per seed, for Tables 1–2 as
	// distributions. The CBR burst keeps its times. Zero (the default)
	// keeps the presets' starts and the report's bytes.
	StartSeed int64 `json:",omitempty"`

	// Transport selects the congestion-control backend driving the QA
	// and cross-traffic flows ("" or transport.KindRAP = the paper's
	// RAP; transport.KindDelay = GCC-style delay-based;
	// transport.KindGreedy = loss-only throughput-greedy). TCP and CBR
	// sources are unaffected.
	Transport transport.Kind

	// Hybrid fluid background (DESIGN.md, "Hybrid fluid/packet
	// simulation"): FluidTCP and FluidRAP background flows are modeled
	// as aggregate AIMD rate processes coupled to the bottleneck —
	// reserving link bandwidth and shared-buffer space against the
	// packet-level flows above — instead of being simulated
	// packet-by-packet. Zero (the default) is a pure packet-level run,
	// wired exactly as before. The fluid halves open fleet populations
	// (10^5–10^6 flows) the packet engine cannot reach.
	FluidTCP int
	FluidRAP int

	// Quality adaptation parameters; Normalize fills their defaults
	// when the run has QA flows.
	QA core.Params

	// Run control.
	Duration       float64
	SampleInterval float64

	// MaxTraceFlows selects fleet sampling. 0 (the default) is the
	// legacy mode: one fully traced QA flow and a rate series per RAP
	// flow — trace cost grows with the flow population. N > 0 caps the
	// per-flow series at N flows of each class (qa/rap/tcp rate series)
	// and emits fleet-wide aggregates (fleet.qa.rate, fleet.rap.rate,
	// fleet.tcp.goodput, fleet.jain.tcp) so trace cost stays O(1) in
	// flow count. Aggregates are deliberately absent in legacy mode:
	// figure TSVs dump every series, and their byte-stability is the
	// paper-reproduction regression oracle.
	MaxTraceFlows int

	// Metrics, when non-nil, receives the run's instrumentation: engine
	// event-loop statistics, bottleneck queue counters and queueing-delay
	// histograms, RAP/TCP transport counters, and QA controller decision
	// counters. Instrumentation is observation-only — it never changes
	// simulation results. Sharing one registry across several configs
	// (e.g. a RunAll sweep) aggregates their counts; registration is
	// concurrency-safe and counter sums are deterministic.
	Metrics *metrics.Registry `json:"-"`

	// SchedRec, when non-nil, captures the engine's event-queue
	// operations (schedules and dequeues, in execution order) so the
	// run's scheduler churn can be replayed against a bare structure —
	// see sim.ReplaySched and BenchmarkScheduler. Observation-only.
	SchedRec *sim.SchedRecorder `json:"-"`

	// record, when non-nil, receives one flow.Driver record per QA flow,
	// in flow order, for tests that replay the run (flow.Replay), and
	// every QA controller of the run keeps its decision log. A
	// follower's (RunEach) is the record of the run it followed.
	record *[][]flow.Input

	// untraced, set by RunEach on its copies, runs the sampler's
	// ticks without tracing anything: the Result's Series stays empty.
	// A traced run's untraced followers are not traced either.
	untraced bool
}

// Normalize validates the config and fills defaulted fields in place.
// It is the single place effective run parameters are computed: Run
// calls it on its private copy, and flag- or file-driven callers (qasim)
// call it to display or serialize what will actually run.
func (cfg *Config) Normalize() error {
	// NaN passes every range check below, so non-finite values go first.
	for _, f := range []struct {
		name string
		x    float64
	}{
		{"BottleneckRate", cfg.BottleneckRate}, {"LinkDelay", cfg.LinkDelay},
		{"AccessDelay", cfg.AccessDelay}, {"CBRRate", cfg.CBRRate},
		{"CBRStart", cfg.CBRStart}, {"CBRStop", cfg.CBRStop},
		{"Duration", cfg.Duration}, {"SampleInterval", cfg.SampleInterval},
	} {
		if math.IsNaN(f.x) || math.IsInf(f.x, 0) {
			return fmt.Errorf("scenario: config %q: %s must be finite, got %v", cfg.Name, f.name, f.x)
		}
	}
	for _, f := range []struct {
		name string
		x    float64
	}{
		{"BottleneckRate", cfg.BottleneckRate}, {"Duration", cfg.Duration}, {"QueueBytes", float64(cfg.QueueBytes)},
	} {
		if f.x <= 0 {
			return fmt.Errorf("scenario: config %q: %s must be positive, got %v", cfg.Name, f.name, f.x)
		}
	}
	if cfg.LinkDelay < 0 || cfg.AccessDelay < 0 {
		return fmt.Errorf("scenario: config %q: negative propagation delay (LinkDelay %v, AccessDelay %v)",
			cfg.Name, cfg.LinkDelay, cfg.AccessDelay)
	}
	if cfg.NumTCP < 0 || cfg.NumRAP < 0 || cfg.NumQA < 0 {
		// Negative counts would poison the fair-share rate split below
		// Run (division by a zero or negative flow total) before any
		// loop noticed them.
		return fmt.Errorf("scenario: negative flow counts (%d QA, %d RAP, %d TCP)",
			cfg.NumQA, cfg.NumRAP, cfg.NumTCP)
	}
	if cfg.FluidTCP < 0 || cfg.FluidRAP < 0 {
		return fmt.Errorf("scenario: negative fluid flow counts (%d TCP, %d RAP)",
			cfg.FluidTCP, cfg.FluidRAP)
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 0.1
	}
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = 512
	}
	kind, err := transport.ParseKind(string(cfg.Transport))
	if err != nil {
		return err
	}
	cfg.Transport = kind
	if cfg.FineGrainRAP && kind != transport.KindRAP {
		return fmt.Errorf("scenario: FineGrainRAP requires the rap transport, got %q", kind)
	}
	if cfg.NumQA > 0 {
		// The controller's own defaulting, so the report records what ran.
		if err := cfg.QA.Normalize(); err != nil {
			return err
		}
	}
	if cfg.NumQA+cfg.NumRAP+cfg.NumTCP+cfg.FluidTCP+cfg.FluidRAP == 0 && cfg.CBRRate <= 0 {
		return fmt.Errorf("scenario: config %q has no traffic sources", cfg.Name)
	}
	return nil
}

// Result carries everything a figure or table needs from one run. A
// follower's (RunEach) has no sources and no Fluid: they are those of
// the run it followed, which its Report reads.
type Result struct {
	Cfg    Config
	Series *trace.Set
	Events []core.Event // the first QA flow's decision log
	Stats  core.DropStats

	QASrc   *QASource   // the first QA flow (nil without one); the figures' flow
	QASrcs  []*QASource // all QA flows, fleet runs included
	RAPSrcs []*RAPSource
	TCPSrcs []*tcp.Source

	// Fluid is the background aggregate of a hybrid run (nil for pure
	// packet-level runs). Its cumulative totals are final once Run has
	// returned.
	Fluid *sim.Fluid

	// Metrics is the registry the run recorded into (nil when the
	// config had none attached); a follower's is a private one that
	// holds its controllers' instruments.
	Metrics *metrics.Registry

	// lead is, for a follower, the run it followed; nil for a run.
	lead *Result

	// PlayedSec/StallSec/LayerSeconds summarize delivered quality.
	PlayedSec    float64
	StallSec     float64
	LayerSeconds float64
}

// Run executes the scenario and collects traces and metrics.
//
// Each call owns a private engine, queues, and seeded RNGs and touches no
// package-level state, so independent Runs are safe to execute
// concurrently (see RunAll) and always produce identical results for
// identical configs.
func Run(cfg Config) (*Result, error) {
	return run(cfg, nil)
}

// run is Run with fols following the run's QA flows: each QA flow's
// driver hands every controller call to the followers' controllers for
// that flow, and the sampler traces them as it traces the flow.
func run(cfg Config, fols []*follower) (*Result, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	if cfg.SchedRec != nil {
		eng.RecordSched(cfg.SchedRec)
	}
	q, fluidQ := newQueue(&cfg, eng)
	net := sim.NewDumbbell(eng, sim.DumbbellConfig{
		Rate:        cfg.BottleneckRate,
		Delay:       cfg.LinkDelay,
		AccessDelay: cfg.AccessDelay,
		Queue:       q,
	})

	res := &Result{Cfg: cfg, Series: trace.NewSet(), Metrics: cfg.Metrics}
	if fluidQ != nil {
		// The fluid aggregate is constructed (and its first step
		// scheduled) before any flow, so its events keep one scheduling
		// order relative to the packet ones.
		res.Fluid = newFluid(&cfg, eng, net.Bneck, fluidQ, net.BaseRTT())
	}
	nflows, err := buildFlows(cfg, res, net)
	if err != nil {
		return nil, err
	}
	if cfg.record != nil {
		*cfg.record = make([][]flow.Input, len(res.QASrcs))
		for i, q := range res.QASrcs {
			q.Record(&(*cfg.record)[i])
		}
	}
	for _, f := range fols {
		for i, q := range res.QASrcs {
			q.Follow(f.reps[i].Feed)
		}
	}
	if reg := cfg.Metrics; reg != nil {
		net.Instrument(reg)
		net.Bneck.InstrumentFlows(reg, nflows)
		instrumentSources(reg, res)
		if res.Fluid != nil {
			res.Fluid.Instrument(reg)
		}
	}
	startTicker(net, &cfg, res, fols)

	eng.RunUntil(cfg.Duration)

	finishResult(res)
	for _, f := range fols {
		f.finish(res)
	}
	return res, nil
}

// newQueue builds the bottleneck queue on eng: RED's average decays
// against eng's clock, and a hybrid run wraps the queue in the fluid
// shared-buffer coupling, which it also returns (nil otherwise).
func newQueue(cfg *Config, eng *sim.Engine) (sim.Queue, *sim.FluidQueue) {
	var q sim.Queue
	if cfg.UseRED {
		q = sim.NewRED(sim.REDConfig{
			LimitBytes:  cfg.QueueBytes,
			MeanPktSize: cfg.PacketSize,
			Seed:        cfg.REDSeed,
			// Virtual clock + bottleneck rate enable the Floyd-Jacobson
			// idle-period decay of the queue average.
			Now:      eng.Now,
			LinkRate: cfg.BottleneckRate,
		})
	} else {
		q = sim.NewDropTail(cfg.QueueBytes)
	}
	if cfg.FluidTCP+cfg.FluidRAP == 0 {
		return q, nil
	}
	fq := sim.NewFluidQueue(q, cfg.QueueBytes)
	return fq, fq
}

// buildFlows constructs the run's traffic mix — QA, RAP, TCP, CBR, in
// that order, with globally increasing flow IDs — on net and its
// engine. It returns the total flow count. Flows that start at the
// same staggered instant are scheduled, and therefore fire, in flow-ID
// order.
func buildFlows(cfg Config, res *Result, net *sim.Dumbbell) (int, error) {
	eng, baseRTT := net.Eng, net.BaseRTT()
	flowID := 0

	// The QA term is 1 even without a QA flow — the legacy fair-share
	// seed all paper presets converged from.
	qaShare := cfg.NumQA
	if qaShare < 1 {
		qaShare = 1
	}
	// Start around one fair share to shorten convergence. The expression
	// is kept verbatim from the pre-transport code: it seeds every
	// backend, and for RAP it must stay bit-identical. The fluid
	// populations join the denominator — zero in every pure packet run,
	// keeping the historical value bitwise — because a hybrid
	// bottleneck is scaled for the whole population: seeding 100 packet
	// flows at a million-flow link's packet-only split would start them
	// four orders of magnitude above their fair share.
	initialRate := cfg.BottleneckRate / float64(qaShare+cfg.NumRAP+cfg.NumTCP+cfg.FluidTCP+cfg.FluidRAP)
	newTr := func() transport.Transport {
		switch cfg.Transport {
		case transport.KindDelay:
			return delay.New(delay.Config{Base: transport.BaseConfig{
				PacketSize:  cfg.PacketSize,
				InitialRTT:  baseRTT,
				InitialRate: initialRate,
			}})
		case transport.KindGreedy:
			return greedy.New(greedy.Config{Base: transport.BaseConfig{
				PacketSize:  cfg.PacketSize,
				InitialRTT:  baseRTT,
				InitialRate: initialRate,
			}})
		default:
			return transport.NewRAP(transport.RAPConfig{
				PacketSize:  cfg.PacketSize,
				InitialRTT:  baseRTT,
				InitialRate: initialRate,
				FineGrain:   cfg.FineGrainRAP,
			})
		}
	}

	var jitter *rand.Rand
	if cfg.StartSeed != 0 {
		jitter = rand.New(rand.NewSource(cfg.StartSeed))
	}
	// start is a flow's start time, jittered under StartSeed; the
	// flows call it in flow-ID order.
	start := func(at float64) float64 {
		if jitter != nil {
			at += jitter.Float64()
		}
		return at
	}

	for i := 0; i < cfg.NumQA; i++ {
		ctrl, err := core.NewController(cfg.QA)
		if err != nil {
			return 0, err
		}
		// Result.Events is the first QA flow's log; a recorded run
		// logs every flow, for the tests that replay them.
		if i == 0 || cfg.record != nil {
			ctrl.KeepEvents()
		}
		// The first QA flow starts at 0 like the paper runs; additional
		// fleet flows stagger to avoid phase locking.
		res.QASrcs = append(res.QASrcs, NewQASource(eng, net, flowID, newTr(), ctrl, start(stagger(i, 0.097))))
		flowID++
	}
	if len(res.QASrcs) > 0 {
		res.QASrc = res.QASrcs[0]
	}
	for i := 0; i < cfg.NumRAP; i++ {
		// Stagger starts slightly to avoid phase locking.
		res.RAPSrcs = append(res.RAPSrcs, NewRAPSource(eng, net, flowID, newTr(), start(stagger(i, 0.111))))
		flowID++
	}
	for i := 0; i < cfg.NumTCP; i++ {
		res.TCPSrcs = append(res.TCPSrcs, tcp.NewSource(eng, net, tcp.Config{
			FlowID:     flowID,
			PacketSize: cfg.PacketSize,
			InitialRTT: baseRTT,
			Start:      start(0.05 + stagger(i, 0.087)),
		}))
		flowID++
	}
	if cfg.CBRRate > 0 {
		cbr.NewSource(eng, net, cbr.Config{
			FlowID:     flowID,
			Rate:       cfg.CBRRate,
			PacketSize: cfg.PacketSize,
			Start:      cfg.CBRStart,
			Stop:       cfg.CBRStop,
		})
		flowID++
	}
	return flowID, nil
}

// newFluid builds the hybrid run's background aggregate — one AIMD
// class per configured population, each seeded at its fair share of
// the bottleneck so convergence matches the packet flows' seeding —
// attaches it to the bottleneck link and shared buffer, and schedules
// its coupling steps. eng must be the engine that owns the link.
func newFluid(cfg *Config, eng *sim.Engine, link *sim.Link, fq *sim.FluidQueue, baseRTT float64) *sim.Fluid {
	// The packet flows' seed formula above (buildFlows) is frozen for
	// RAP bit-stability and deliberately ignores the fluid population;
	// the fluid classes seed at the all-population fair share, which is
	// what the background would converge to anyway.
	total := cfg.NumQA + cfg.NumRAP + cfg.NumTCP + cfg.FluidTCP + cfg.FluidRAP
	share := cfg.BottleneckRate / float64(total)
	var classes []sim.FluidClassConfig
	class := func(name string, flows int) {
		if flows > 0 {
			classes = append(classes, sim.FluidClassConfig{
				Name:        name,
				Flows:       flows,
				PacketSize:  cfg.PacketSize,
				RTT:         baseRTT,
				InitialRate: share * float64(flows),
			})
		}
	}
	class("tcp", cfg.FluidTCP)
	class("rap", cfg.FluidRAP)
	f := sim.NewFluid(eng, link, fq, sim.FluidConfig{Classes: classes})
	f.Start()
	return f
}

// finishResult copies the first QA flow's delivered-quality summary
// onto the result, after the engine has run to completion.
func finishResult(res *Result) {
	if res.QASrc != nil {
		res.readController(res.QASrc.Ctrl)
	}
}

// readController copies c's delivered-quality summary onto the result.
func (res *Result) readController(c *core.Controller) {
	res.Events = c.Events
	res.Stats = c.Stats()
	res.PlayedSec = c.PlayedSec
	res.StallSec = c.StallSec()
	res.LayerSeconds = c.LayerSeconds
}

// stagger spreads flow i's start time over a bounded one-second window.
// Small populations get the classic linear offsets — float64(i)*step,
// byte-identical to what every paper preset has always produced — while
// a fleet of any size finishes ramping up within its first second
// instead of taking O(flows) seconds to start.
//
// The wrap is computed in integer milliseconds, not with math.Mod:
// float64(i)*step accumulates rounding error as i grows, so the float
// remainder of flow 10_000 depends on nothing but luck, and two flows
// whose offsets should coincide exactly (i and i plus one full period,
// 1000/gcd(stepMilli, 1000) steps) would drift apart. Every stagger
// step is a whole number of milliseconds, making the integer form
// exact at any population size, so coinciding start times coincide
// bitwise.
func stagger(i int, step float64) float64 {
	stepMilli := int64(math.Round(step * 1000))
	if m := int64(i) * stepMilli; m >= 1000 {
		return float64(m%1000) / 1000
	}
	// Below the wrap the product is exact to the last bit of
	// float64(i)*step, the historical value; keep it bitwise.
	return float64(i) * step
}

// instrumentSources registers the transport- and controller-level
// instruments, one shared set per class (the shared Instruments use
// atomic histograms and snapshot-time Func reads, so concurrent runs
// sharing a registry record into them safely).
//
// Transport namespaces derive from the backend kind — "qa.<kind>" for
// the QA flows and "<kind>" for cross traffic — so the default RAP
// backend keeps the historical "qa.rap.*"/"rap.*" names byte-stable
// while delay/greedy runs report under their own ("qa.delay.*", ...).
func instrumentSources(reg *metrics.Registry, res *Result) {
	kind := res.Cfg.Transport
	if kind == "" {
		kind = transport.KindRAP
	}
	if len(res.QASrcs) > 0 {
		// Shared instruments, like the cross-traffic/tcp. ones below:
		// counters aggregate and Func metrics sum across a fleet's QA
		// flows.
		prefix := "qa." + string(kind)
		trIns := transport.NewInstruments(reg, prefix)
		ctrls := make([]*core.Controller, len(res.QASrcs))
		for i, q := range res.QASrcs {
			q.Tr.Instrument(reg, prefix, trIns)
			ctrls[i] = q.Ctrl
		}
		instrumentControllers(reg, ctrls)
	}
	if len(res.RAPSrcs) > 0 {
		ins := transport.NewInstruments(reg, string(kind))
		for _, r := range res.RAPSrcs {
			r.Tr.Instrument(reg, string(kind), ins)
		}
	}
	if len(res.TCPSrcs) > 0 {
		ins := tcp.NewInstruments(reg, "tcp")
		for _, t := range res.TCPSrcs {
			t.Instrument(reg, "tcp", ins)
		}
	}
}

// instrumentControllers registers the QA controllers' instruments under
// "qa", one shared set: a run's, and a follower's (RunEach).
func instrumentControllers(reg *metrics.Registry, ctrls []*core.Controller) {
	ins := core.NewInstruments(reg, "qa")
	for _, c := range ctrls {
		c.Instrument(reg, "qa", ins)
	}
}
