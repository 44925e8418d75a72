// Benchmarks regenerating every table and figure in the paper's
// evaluation (§5), plus micro-benchmarks of the core algorithms and the
// ablations called out in DESIGN.md. Each figure benchmark runs the full
// scenario and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises the harness and prints the reproduced numbers.
package qav

import (
	"fmt"
	"testing"

	"qav/internal/core"
	"qav/internal/figures"
	"qav/internal/metrics"
	"qav/internal/scenario"
	"qav/internal/sim"
	"qav/internal/tcp"
	"qav/internal/transport"
)

// BenchmarkFigure1 regenerates Fig 1: the sawtooth transmission rate of
// a single RAP flow hunting around the bottleneck bandwidth.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Get("avg_rate"), "B/s_avg-rate")
		b.ReportMetric(res.Get("backoffs"), "backoffs")
	}
}

// BenchmarkFigure2 regenerates Fig 2: filling and draining phases with
// receiver buffering on a single quality-adaptive flow.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Get("max_layers"), "layers_max")
		b.ReportMetric(res.Get("backoffs"), "backoffs")
		b.ReportMetric(res.Get("stall_sec"), "s_stalled")
	}
}

// BenchmarkFigure11 regenerates Fig 11: the first 40 seconds of the T1
// trace at Kmax=2 — rates, per-layer breakdown, drain rates, buffers.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Figure11(2, figures.DefaultScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Get("avg_layers"), "layers_avg")
		b.ReportMetric(res.Get("buf_l0_avg"), "B_buf-l0")
		b.ReportMetric(res.Get("buf_l3_avg"), "B_buf-l3")
		b.ReportMetric(res.Get("stall_sec"), "s_stalled")
	}
}

// BenchmarkFigure12 regenerates Fig 12: the effect of Kmax in {2,3,4} on
// buffering and the number of quality changes. The three runs execute on
// the parallel sweep runner.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Figure12(figures.DefaultScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{2, 3, 4} {
			b.ReportMetric(res.Get(fname("kmax%d.changes", k)), fname("changes_k%d", k))
			b.ReportMetric(res.Get(fname("kmax%d.buf_avg", k)), fname("B_buf_k%d", k))
		}
	}
}

// BenchmarkFigure13 regenerates Fig 13: responsiveness to a CBR source
// at half the bottleneck bandwidth (on at 30s, off at 60s), Kmax=4.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Figure13(figures.DefaultScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Get("layers_before"), "layers_before")
		b.ReportMetric(res.Get("layers_during"), "layers_during")
		b.ReportMetric(res.Get("layers_after"), "layers_after")
		b.ReportMetric(res.Get("stall_sec"), "s_stalled")
	}
}

// BenchmarkTable1 regenerates Table 1: average buffering efficiency e
// over drop events for Kmax in {2,3,4,5,8} on tests T1 and T2.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, _, err := figures.TablesSweep(nil, figures.DefaultScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Drops > 0 {
				b.ReportMetric(100*c.AvgEfficiency, fname("pct_eff_%s_k%d", c.Test, c.Kmax))
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2: the percentage of layer drops
// caused by poor inter-layer buffer distribution.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, _, err := figures.TablesSweep(nil, figures.DefaultScale, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Drops > 0 {
				b.ReportMetric(c.PoorDistPct, fname("pct_poor_%s_k%d", c.Test, c.Kmax))
			}
		}
	}
}

// BenchmarkTablesSweep runs the Table 1/2 sweep, 2 simulations and 8
// followers (scenario.RunReports), on one worker and on one per CPU; the
// two workers of the sweep's two simulations are all it can use. Both
// variants produce identical TableCell values (see
// figures.TestTablesSweepParallelMatchesSequential).
func BenchmarkTablesSweep(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := figures.TablesSweep(nil, figures.DefaultScale, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDropTailVsRED compares the bottleneck queue
// disciplines (the paper's future-work variant): loss clustering under
// DropTail vs RED and its effect on the QA flow's quality changes. The
// two variants are independent runs and execute on the parallel runner.
func BenchmarkAblationDropTailVsRED(b *testing.B) {
	names := []string{"droptail", "red"}
	cfgs := make([]scenario.Config, len(names))
	for i, red := range []bool{false, true} {
		cfg := scenario.MustPreset("T1", scenario.WithKmax(2), scenario.WithScale(figures.DefaultScale))
		cfg.Duration = 60
		cfg.UseRED = red
		cfgs[i] = cfg
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := scenario.RunAll(cfgs, 0)
		if err != nil {
			b.Fatal(err)
		}
		for j, res := range results {
			b.ReportMetric(float64(res.Stats.Adds+res.Stats.Drops), fname("changes_%s", names[j]))
			b.ReportMetric(100*res.Stats.AvgEfficiency, fname("pct_eff_%s", names[j]))
			b.ReportMetric(res.Series.Get("qa.layers").AvgBetween(20, 60), fname("layers_avg_%s", names[j]))
		}
	}
}

// BenchmarkAblationAllocation compares the paper's optimal inter-layer
// buffer allocation against §2.3's two strawmen under T2's CBR stress,
// all three variants concurrently on the parallel runner.
func BenchmarkAblationAllocation(b *testing.B) {
	allocs := []core.Allocation{core.AllocOptimal, core.AllocEqual, core.AllocBase}
	cfgs := make([]scenario.Config, len(allocs))
	for i, alloc := range allocs {
		cfg := scenario.MustPreset("T2", scenario.WithKmax(3), scenario.WithScale(figures.DefaultScale))
		cfg.QA.Alloc = alloc
		cfgs[i] = cfg
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := scenario.RunAll(cfgs, 0)
		if err != nil {
			b.Fatal(err)
		}
		for j, res := range results {
			b.ReportMetric(100*res.Stats.AvgEfficiency, fname("pct_eff_%s", allocs[j]))
			b.ReportMetric(res.Stats.PoorDistPct, fname("pct_poor_%s", allocs[j]))
			b.ReportMetric(res.StallSec, fname("s_stalled_%s", allocs[j]))
		}
	}
}

// BenchmarkFleet measures simulation throughput at population scale: the
// Fleet preset (half QA, half Sack-TCP on one dumbbell, fair share held
// constant as the population grows) at 10, 100 and 1000 flows. Each run
// is instrumented, and the headline numbers are simulated events and
// bottleneck packets pushed per wall-clock second.
func BenchmarkFleet(b *testing.B) {
	for _, flows := range []int{10, 100, 1000} {
		b.Run(fmt.Sprint(flows), func(b *testing.B) {
			cfg := scenario.MustPreset("Fleet",
				scenario.WithFlows(flows), scenario.WithScale(figures.DefaultScale))
			cfg.Duration = 5
			var events, packets int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Metrics = metrics.NewRegistry()
				res, err := scenario.Run(c)
				if err != nil {
					b.Fatal(err)
				}
				snap := res.Metrics.Snapshot()
				events += snap.Counters["sim.events.executed"]
				packets += snap.Counters["link.tx.packets"]
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(events)/sec, "events/sec")
				b.ReportMetric(float64(packets)/sec, "packets/sec")
			}
		})
	}
}

// BenchmarkPickLayer measures the per-packet fine-grain allocation cost
// (the hot path of a streaming server).
func BenchmarkPickLayer(b *testing.B) {
	ctrl, err := core.NewController(core.Params{C: 10_000, Kmax: 2, MaxLayers: 8})
	if err != nil {
		b.Fatal(err)
	}
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer := ctrl.PickLayer(now, 60_000, 25_000, 512)
		ctrl.OnDelivered(now, layer, 512)
		now += 512.0 / 60_000
	}
}

// BenchmarkStateLadder measures building the maximally efficient state
// sequence (runs on every draining-phase replan).
func BenchmarkStateLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.StateLadder(60_000, 6, 0, 8, 10_000, 25_000)
	}
}

// BenchmarkFillTarget measures the per-packet SendPacket scan.
func BenchmarkFillTarget(b *testing.B) {
	bufs := []float64{9000, 6000, 3000, 800, 0, 0}
	for i := 0; i < b.N; i++ {
		core.FillTarget(60_000, bufs, 10_000, 25_000, 8)
	}
}

// BenchmarkDrainPlan measures the reverse-path drain allocation.
func BenchmarkDrainPlan(b *testing.B) {
	ladder := core.StateLadder(40_000, 6, 0, 8, 10_000, 25_000)
	bufs := []float64{9000, 6000, 3000, 800, 200, 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DrainPlan(ladder, bufs, 1500, 500)
	}
}

// BenchmarkSimulator measures raw event throughput of the discrete-event
// engine with a saturated link, packets drawn from the engine's pool the
// way real sources do. The engine and link run fully instrumented, so
// the number shows whether metrics stay free on the per-packet path.
func BenchmarkSimulator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		q := sim.NewDropTail(1 << 16)
		l := sim.NewLink(eng, q, 1e6, 0.001)
		reg := metrics.NewRegistry()
		eng.Instrument(reg)
		l.Instrument(reg)
		sink := sim.ReceiverFunc(func(p *sim.Packet) {})
		var feed func()
		n := 0
		feed = func() {
			if n >= 10_000 {
				return
			}
			n++
			p := eng.Pool().Get()
			p.Seq, p.Size, p.Dst = int64(n), 512, sink
			l.Offer(p)
			eng.After(0.0004, feed)
		}
		eng.At(0, feed)
		eng.Run()
	}
}

// BenchmarkScheduler replays the calendar churn of one real Figure 11
// run (T1, Kmax=2, 40 simulated seconds: every calendar schedule and
// dequeue the engine issued, in execution order) against the queue in
// isolation. The same replay against the reference heap is
// BenchmarkSchedReplay in internal/sim, where the heap lives.
func BenchmarkScheduler(b *testing.B) {
	rec := &sim.SchedRecorder{}
	cfg := scenario.MustPreset("T1", scenario.WithKmax(2), scenario.WithScale(figures.DefaultScale))
	cfg.Duration = 40
	cfg.SchedRec = rec
	if _, err := scenario.Run(cfg); err != nil {
		b.Fatal(err)
	}
	pushes := 0
	for _, op := range rec.Ops {
		if op.Kind == sim.SchedPush {
			pushes++
		}
	}
	b.Run("calendar", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(pushes), "events/replay")
		for i := 0; i < b.N; i++ {
			if got := sim.ReplaySched(sim.SchedCalendar, rec.Ops); got == 0 {
				b.Fatal("replay popped no events")
			}
		}
	})
}

// TestAllocFreeSteadyStateCrossTraffic is the tentpole's end-to-end
// invariant: a dumbbell with a DropTail bottleneck carrying RAP and
// Sack-TCP cross traffic runs allocation-free at steady state — with
// every layer fully instrumented (engine, link + per-flow delay
// histograms, RAP, TCP), so each record site is covered by the zero
// budget. Rates are capped below the bottleneck so the measured window
// is loss-free — loss handling (Backoff records, scoreboard growth) is
// allowed to allocate; the per-packet send/enqueue/deliver/ack cycle is
// not.
func TestAllocFreeSteadyStateCrossTraffic(t *testing.T) {
	eng := sim.NewEngine()
	net := sim.NewDumbbell(eng, sim.DumbbellConfig{
		Rate: 125_000, Delay: 0.01, AccessDelay: 0.005, QueueBytes: 1 << 16,
	})
	rapSrc := scenario.NewRAPSource(eng, net, 1, transport.NewRAP(transport.RAPConfig{
		PacketSize: 512, MaxRate: 30_000, InitialRTT: 0.04,
	}), 0)
	tcpSrc := tcp.NewSource(eng, net, tcp.Config{
		FlowID: 2, PacketSize: 512, MaxCwnd: 8, InitialRTT: 0.04,
	})
	reg := metrics.NewRegistry()
	net.Instrument(reg)
	net.Bneck.InstrumentFlows(reg, []int{1, 2})
	rapSrc.Tr.Instrument(reg, "rap", transport.NewInstruments(reg, "rap"))
	tcpSrc.Instrument(reg, "tcp", tcp.NewInstruments(reg, "tcp"))
	// Warm up past slow start and the AIMD ramp so maps, rings, the
	// event free list, and the packet pool all reach their high-water
	// marks.
	eng.RunUntil(30)
	allocs := testing.AllocsPerRun(50, func() {
		eng.RunUntil(eng.Now() + 0.5)
	})
	if allocs != 0 {
		t.Fatalf("steady-state RAP+TCP cross traffic allocates %.1f times per 0.5s slice, want 0", allocs)
	}
	if rapSrc.Tr.Counters().Lost != 0 || tcpSrc.RetransPkts != 0 {
		t.Fatalf("measurement window saw loss (rap=%d tcp=%d retrans); rates are miscapped and the test is measuring the loss path",
			rapSrc.Tr.Counters().Lost, tcpSrc.RetransPkts)
	}
	if rapSrc.Tr.Counters().Acked == 0 || tcpSrc.AckedPkts == 0 {
		t.Fatal("no traffic flowed; test is vacuous")
	}
	// Every instrumented record site must actually have fired during the
	// measured window — otherwise the zero-alloc budget is vacuous.
	snap := reg.Snapshot()
	for _, name := range []string{
		"queue.delay", "queue.delay.f1", "queue.delay.f2",
		"rap.srtt", "rap.ackgap", "tcp.srtt",
	} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %q recorded nothing; the alloc budget did not cover its record site", name)
		}
	}
}

func fname(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// BenchmarkAblationFineGrainRAP compares RAP-vs-TCP bandwidth sharing
// with and without RAP's fine-grain inter-ACK adaptation (the variant
// the paper sets aside), both runs concurrently on the parallel runner.
// Fine grain eases off as queues build, which narrows the RAP:TCP
// goodput ratio.
func BenchmarkAblationFineGrainRAP(b *testing.B) {
	names := []string{"coarse", "finegrain"}
	cfgs := make([]scenario.Config, len(names))
	for i, fg := range []bool{false, true} {
		cfg := scenario.MustPreset("T1", scenario.WithKmax(2), scenario.WithScale(figures.DefaultScale))
		cfg.Duration = 60
		cfg.FineGrainRAP = fg
		cfgs[i] = cfg
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := scenario.RunAll(cfgs, 0)
		if err != nil {
			b.Fatal(err)
		}
		for j, res := range results {
			var rapG, tcpG int64
			for _, r := range res.RAPSrcs {
				rapG += r.RecvBytes
			}
			for _, s := range res.TCPSrcs {
				tcpG += s.GoodputBytes()
			}
			rapAvg := float64(rapG) / float64(len(res.RAPSrcs))
			tcpAvg := float64(tcpG) / float64(len(res.TCPSrcs))
			b.ReportMetric(rapAvg/tcpAvg, fname("rap/tcp_ratio_%s", names[j]))
			b.ReportMetric(res.Series.Get("qa.layers").AvgBetween(20, 60), fname("layers_avg_%s", names[j]))
		}
	}
}
