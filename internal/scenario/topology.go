package scenario

import (
	"qav/internal/metrics"
	"qav/internal/sim"
)

// topology is the run's dumbbell: the bottleneck link and queue on the
// engine that owns them, and the engines the flows run on. It is the
// one place Run's two execution modes differ. A serial run is one
// engine that is both the bottleneck's and the only flow engine
// (sim.Dumbbell); Shards >= 2 is a bottleneck engine plus Shards-1 flow
// engines under a conservative time barrier (sim.ShardedDumbbell),
// with results identical to the serial engine.
type topology struct {
	bneck   *sim.Engine // owns link and queue
	link    *sim.Link
	queue   sim.Queue
	fluidQ  *sim.FluidQueue // hybrid runs only: the shared-buffer coupling
	baseRTT float64

	// flows are the flow engines; flow i runs on flows[i%len(flows)].
	// lookahead is the barrier window width (0 on one engine).
	flows     []*sim.Engine
	lookahead float64

	place      placement
	instrument func(reg *metrics.Registry) // engines and bottleneck link
	run        func(duration float64, atBarrier func(hi float64, final bool))
}

// placement maps a flow to the engine it runs on and the network front
// it sends through.
type placement func(flowID int) (*sim.Engine, sim.Network)

// newTopology builds cfg's dumbbell, serial or sharded.
func newTopology(cfg *Config) *topology {
	t := &topology{}
	// queueFn builds the bottleneck queue on the engine that owns the
	// link: RED's average decays against that engine's clock, and a
	// hybrid run wraps the queue in the fluid shared-buffer coupling.
	queueFn := func(e *sim.Engine) sim.Queue {
		var q sim.Queue
		if cfg.UseRED {
			q = sim.NewRED(sim.REDConfig{
				LimitBytes:  cfg.QueueBytes,
				MeanPktSize: cfg.PacketSize,
				Seed:        cfg.REDSeed,
				// Virtual clock + bottleneck rate enable the Floyd-Jacobson
				// idle-period decay of the queue average.
				Now:      e.Now,
				LinkRate: cfg.BottleneckRate,
			})
		} else {
			q = sim.NewDropTail(cfg.QueueBytes)
		}
		if cfg.FluidTCP+cfg.FluidRAP > 0 {
			t.fluidQ = sim.NewFluidQueue(q, cfg.QueueBytes)
			q = t.fluidQ
		}
		return q
	}
	dc := sim.DumbbellConfig{
		Rate:        cfg.BottleneckRate,
		Delay:       cfg.LinkDelay,
		AccessDelay: cfg.AccessDelay,
		QueueBytes:  cfg.QueueBytes,
	}

	if cfg.Shards <= 1 {
		eng := sim.NewEngine()
		if cfg.SchedRec != nil {
			eng.RecordSched(cfg.SchedRec)
		}
		dc.Queue = queueFn(eng)
		net := sim.NewDumbbell(eng, dc)
		t.bneck, t.link, t.queue, t.baseRTT = eng, net.Bneck, net.Q, net.BaseRTT()
		t.flows = []*sim.Engine{eng}
		t.place = func(int) (*sim.Engine, sim.Network) { return eng, net }
		t.instrument = net.Instrument
		t.run = func(duration float64, _ func(float64, bool)) { eng.RunUntil(duration) }
		return t
	}

	d := sim.NewShardedDumbbell(cfg.Shards-1, dc, queueFn)
	t.bneck, t.link, t.queue, t.baseRTT = d.BneckEngine(), d.Bneck(), d.Queue(), d.BaseRTT()
	t.flows = make([]*sim.Engine, d.NumFlowShards())
	for i := range t.flows {
		t.flows[i] = d.FlowEngine(i)
	}
	t.lookahead = d.Lookahead()
	t.place = func(flowID int) (*sim.Engine, sim.Network) {
		s := flowID % len(t.flows)
		d.AssignFlow(flowID, s)
		return d.FlowEngine(s), d.FlowNet(s)
	}
	t.instrument = d.Instrument
	t.run = d.Run
	return t
}
