package sim_test

import (
	"testing"

	"qav/internal/figures"
	"qav/internal/scenario"
	"qav/internal/sim"
)

// BenchmarkSchedReplay replays the event-queue churn of one real Figure
// 11 run (T1, Kmax=2, 40 simulated seconds) against the reference heap
// and the calendar queue in isolation: same ops, same times, same live
// depths — the difference is purely the structure's schedule/dequeue
// cost. It lives in the external test package because recording the
// trace needs scenario, which imports sim.
func BenchmarkSchedReplay(b *testing.B) {
	rec := &sim.SchedRecorder{}
	cfg := scenario.MustPreset("T1", scenario.WithKmax(2), scenario.WithScale(figures.DefaultScale))
	cfg.Duration = 40
	cfg.SchedRec = rec
	if _, err := scenario.Run(cfg); err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name   string
		replay func([]sim.SchedOp) int
	}{
		{"heap", sim.ReplaySchedHeap},
		{"calendar", func(ops []sim.SchedOp) int { return sim.ReplaySched(sim.SchedCalendar, ops) }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if leg.replay(rec.Ops) == 0 {
					b.Fatal("replay popped no events")
				}
			}
		})
	}
}
