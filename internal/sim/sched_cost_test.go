package sim_test

import (
	"container/heap"
	"math/rand"
	"testing"

	"qav/internal/figures"
	"qav/internal/metrics"
	"qav/internal/scenario"
	"qav/internal/sim"
)

// recordSched runs cfg and returns every schedule and dequeue its engine
// issued, in execution order.
func recordSched(tb testing.TB, cfg scenario.Config) []sim.SchedOp {
	tb.Helper()
	rec := &sim.SchedRecorder{}
	cfg.SchedRec = rec
	if _, err := scenario.Run(cfg); err != nil {
		tb.Fatal(err)
	}
	return rec.Ops
}

// figure11Trace is one real Figure 11 run: T1, Kmax=2, 80 simulated
// seconds — a few dozen events at the head, timers behind. The packet
// hops ride delay lines, so the trace holds the calendar's share only.
func figure11Trace(tb testing.TB) []sim.SchedOp {
	cfg := scenario.MustPreset("T1", scenario.WithKmax(2), scenario.WithScale(figures.DefaultScale))
	cfg.Duration = 80
	return recordSched(tb, cfg)
}

// fleetTrace is a RED fleet, half QA and half Sack-TCP: hundreds to
// thousands of events within one queueing delay of now, and one
// retransmission timer per TCP flow a few hundred ms out.
func fleetTrace(tb testing.TB, flows int, dur float64) []sim.SchedOp {
	cfg := scenario.MustPreset("Fleet", scenario.WithFlows(flows), scenario.WithScale(figures.DefaultScale))
	cfg.UseRED = true
	cfg.REDSeed = 1
	cfg.Duration = dur
	return recordSched(tb, cfg)
}

// timeHeap is a min-heap of pushes in (time, seq) order: the trace
// transformers below need to know which push each pop returns.
type timeHeap []timedPush

type timedPush struct {
	t   float64
	seq int
	far bool // dropFarPushes: this push, and the pop that returns it, go
}

func (h timeHeap) Len() int { return len(h) }
func (h timeHeap) Less(i, j int) bool {
	return h[i].t < h[j].t || h[i].t == h[j].t && h[i].seq < h[j].seq
}
func (h timeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x any) {
	*h = append(*h, x.(timedPush))
}
func (h *timeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// dropFarPushes removes from ops every push more than horizon ahead of
// the clock (the time of the last pop) together with the pop that
// returns it: the trace a run would leave if its far-future timers had
// never been scheduled. A width estimate that leans on the far tail
// changes a great deal when 4% of the events go — the parent's calendar
// ran this shape 3.3x slower than the full trace.
func dropFarPushes(ops []sim.SchedOp, horizon float64) []sim.SchedOp {
	var pending timeHeap
	var out []sim.SchedOp
	now := 0.0
	for i, op := range ops {
		if op.Kind == sim.SchedPush {
			far := op.Time > now+horizon
			heap.Push(&pending, timedPush{op.Time, i, far})
			if !far {
				out = append(out, op)
			}
			continue
		}
		if len(pending) == 0 {
			continue
		}
		ev := heap.Pop(&pending).(timedPush)
		now = ev.t
		if !ev.far {
			out = append(out, op)
		}
	}
	return out
}

// densityStepTrace is a hold model (pop one, push one a random increment
// later) over n events whose mean increment drops 100x, then returns:
// the event density steps up and back down mid-run with the population
// unchanged, so only the cost counters can tell the calendar its width
// went stale.
func densityStepTrace(n, opsPerPhase int) []sim.SchedOp {
	rng := rand.New(rand.NewSource(7))
	var pending timeHeap
	var ops []sim.SchedOp
	seq := 0
	push := func(t float64) {
		seq++
		heap.Push(&pending, timedPush{t: t, seq: seq})
		ops = append(ops, sim.SchedOp{Kind: sim.SchedPush, Time: t})
	}
	for i := 0; i < n; i++ {
		push(rng.Float64())
	}
	for _, mean := range []float64{0.5, 0.005, 0.5} {
		for i := 0; i < opsPerPhase; i++ {
			now := heap.Pop(&pending).(timedPush).t
			ops = append(ops, sim.SchedOp{Kind: sim.SchedPop})
			push(now + 2*mean*rng.Float64())
		}
	}
	return ops
}

// TestSchedCostOnRecordedTraces holds the calendar queue to its O(1)
// claim on the populations this repo produces, by count and not by
// clock: per push it may walk at most 1.5 list links and route at most
// 2% through the overflow lane, its retunes may relink at most one event
// per 64 pushes (one retune per 64 x population pushes), and every pop
// must return what the reference heap returns.
func TestSchedCostOnRecordedTraces(t *testing.T) {
	fleet := fleetTrace(t, 200, 7)
	for _, tr := range []struct {
		name string
		ops  []sim.SchedOp
	}{
		{"figure11", figure11Trace(t)},
		{"fleet", fleet},
		{"fleet-without-far-pushes", dropFarPushes(fleet, 0.05)},
		{"density-step", densityStepTrace(500, 150_000)},
	} {
		t.Run(tr.name, func(t *testing.T) {
			c, err := sim.ReplayCost(tr.ops)
			if err != nil {
				t.Fatal(err)
			}
			pushes := float64(c.Pushes)
			t.Logf("%d pushes, population %.0f: %.3f links/push, %.3f skipped buckets/pop, %.3f%% overflow, %d retunes moving %.4f events/push, %d buckets of %.3g us",
				c.Pushes, c.MeanPopulation, float64(c.Walk)/pushes, float64(c.Skips)/float64(c.Pops),
				100*float64(c.Overflow)/pushes, c.Retunes, float64(c.RetuneMoved)/pushes, c.Buckets, c.WidthUs)
			if c.Pushes < 100_000 {
				t.Fatalf("trace has %d pushes: too short to say anything", c.Pushes)
			}
			if walk := float64(c.Walk) / pushes; walk > 1.5 {
				t.Errorf("sorted inserts walked %.2f links per push, want <= 1.5", walk)
			}
			if ov := float64(c.Overflow) / pushes; ov > 0.02 {
				t.Errorf("%.2f%% of pushes went through the overflow lane, want <= 2%%", 100*ov)
			}
			if c.RetuneMoved*64 > c.Pushes {
				t.Errorf("%d retunes relinked %d events over %d pushes, want at most one per 64 pushes", c.Retunes, c.RetuneMoved, c.Pushes)
			}
			if c.Retunes == 0 {
				t.Error("the calendar never tuned itself")
			}
		})
	}
}

// TestPacketHopsOffCalendar holds the packet hops to their delay lines,
// by count and not by clock: a transmitted packet's access hop,
// serialization slot, delivery and acknowledgement never touch the
// calendar, so on a Figure 11 run and a 40-flow RED fleet it takes at
// most 1.25 inserts per packet (send pacing and the transports' timers;
// with the hops on the calendar it took about five). sim.sched.pushes
// must count exactly the inserts a SchedRecorder sees.
func TestPacketHopsOffCalendar(t *testing.T) {
	fleet := scenario.MustPreset("Fleet", scenario.WithFlows(40), scenario.WithScale(figures.DefaultScale))
	fleet.UseRED = true
	fleet.REDSeed = 1
	for _, tc := range []struct {
		name string
		cfg  scenario.Config
	}{
		{"figure11", scenario.MustPreset("T1", scenario.WithKmax(2), scenario.WithScale(figures.DefaultScale))},
		{"fleet-40-red", fleet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			rec := &sim.SchedRecorder{}
			cfg.SchedRec = rec
			cfg.Metrics = metrics.NewRegistry()
			if _, err := scenario.Run(cfg); err != nil {
				t.Fatal(err)
			}
			var pushes int64
			for _, op := range rec.Ops {
				if op.Kind == sim.SchedPush {
					pushes++
				}
			}
			c := cfg.Metrics.Snapshot().Counters
			tx := c["link.tx.packets"]
			t.Logf("%d calendar inserts, %d packets transmitted, %d events scheduled: %.3f inserts per packet",
				pushes, tx, c["sim.events.scheduled"], float64(pushes)/float64(tx))
			if got := c["sim.sched.pushes"]; got != pushes {
				t.Errorf("sim.sched.pushes = %d, the recorder saw %d inserts", got, pushes)
			}
			if tx < 10_000 {
				t.Fatalf("%d packets transmitted: too short to say anything", tx)
			}
			if float64(pushes) > 1.25*float64(tx) {
				t.Errorf("%d calendar inserts for %d packets, want <= 1.25 per packet", pushes, tx)
			}
		})
	}
}
