package sim_test

import (
	"testing"

	"qav/internal/sim"
)

// BenchmarkSchedReplay replays the calendar churn of two real runs —
// Figure 11 (T1, Kmax=2, 80 simulated seconds: a head of a few dozen
// events) and a 1000-flow RED fleet (5 s: hundreds of events within one
// queueing delay, a retransmission timer per TCP flow behind them) —
// against the reference heap and the calendar queue in isolation: same
// ops, same times, same live depths, so the difference is purely the
// structure's schedule/dequeue cost. It lives in the external test
// package because recording the traces needs scenario, which imports
// sim.
func BenchmarkSchedReplay(b *testing.B) {
	for _, tr := range []struct {
		name string
		ops  []sim.SchedOp
	}{
		{"figure11", figure11Trace(b)},
		{"fleet", fleetTrace(b, 1000, 5)},
	} {
		for _, leg := range []struct {
			name   string
			replay func([]sim.SchedOp) int
		}{
			{"heap", sim.ReplaySchedHeap},
			{"calendar", func(ops []sim.SchedOp) int { return sim.ReplaySched(sim.SchedCalendar, ops) }},
		} {
			b.Run(tr.name+"/"+leg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if leg.replay(tr.ops) == 0 {
						b.Fatal("replay popped no events")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr.ops)), "ns/schedop")
			})
		}
	}
}
