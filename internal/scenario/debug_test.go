package scenario

import (
	"fmt"
	"testing"

	"qav/internal/trace"
)

// TestDebugT1Dump is a diagnostic, not an assertion: run with
// `go test -run DebugT1 -v` to inspect a T1 run.
func TestDebugT1Dump(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	for _, kmax := range []int{2, 8} {
		cfg := MustPreset("T1", WithKmax(kmax))
		cfg.Duration = 120
		res := runChecked(t, cfg)
		q := res.QASrc
		t.Logf("=== %s C=%.0f fair=%.0f", cfg.Name, cfg.QA.C, cfg.BottleneckRate/20)
		t.Logf("qa avg rate=%.0f avg layers=%.2f max layers=%.0f srtt=%.3f slope=%.0f",
			res.Series.Get("qa.rate").AvgBetween(20, 120),
			res.Series.Get("qa.layers").AvgBetween(20, 120),
			seriesMax(res.Series.Get("qa.layers")), q.Tr.SRTT(), q.Tr.ConservativeSlope())
		t.Logf("adds=%d drops=%d backoffs=%d stalls=%d eff=%.3f poor=%.1f%%",
			res.Stats.Adds, res.Stats.Drops, res.Stats.Backoffs, res.Stats.Stalls,
			res.Stats.AvgEfficiency, res.Stats.PoorDistPct)
		for l := 0; l < 4; l++ {
			t.Logf("  l%d: avgbuf=%.0f maxbuf=%.0f avgtx=%.0f", l,
				res.Series.Get(fmt.Sprintf("qa.buf.l%d", l)).AvgBetween(20, 120),
				seriesMax(res.Series.Get(fmt.Sprintf("qa.buf.l%d", l))),
				res.Series.Get(fmt.Sprintf("qa.tx.l%d", l)).AvgBetween(20, 120))
		}
		t.Logf("  buftotal avg=%.0f max=%.0f played=%.1f stall=%.2f",
			res.Series.Get("qa.buftotal").AvgBetween(20, 120),
			seriesMax(res.Series.Get("qa.buftotal")), res.PlayedSec, res.StallSec)
		var rapG, tcpG int64
		for _, r := range res.RAPSrcs {
			rapG += r.RecvBytes
		}
		for _, s := range res.TCPSrcs {
			tcpG += s.GoodputBytes()
		}
		t.Logf("  goodput/flow: rap=%.0f tcp=%.0f (B/s); tcp timeouts=%d frec=%d",
			float64(rapG)/float64(len(res.RAPSrcs))/cfg.Duration,
			float64(tcpG)/float64(len(res.TCPSrcs))/cfg.Duration,
			res.TCPSrcs[0].Timeouts, res.TCPSrcs[0].FastRecover)
	}
}

// seriesMax is Max for logging: empty series print as 0.
func seriesMax(s *trace.Series) float64 {
	hi, _ := s.Max()
	return hi
}
