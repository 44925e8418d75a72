package rap

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qav/internal/metrics"
	"qav/internal/transport"
)

// refSender is the RAP sender as it stood before it became a backend on
// transport.Base, kept as the oracle of the differential below: its own
// config defaulting, SRTT/RTTVAR/RTO/peak-envelope estimator, one-SRTT
// backoff fence, fine-grain factor, counters and instruments, bodies
// verbatim, over the map of outstanding packets that seqwin.Window
// replaced. It shares no code with the sender under test, so a
// divergence in any of those — or in the window's loss scans — shows as
// a differing value after some call.

type refConfig struct {
	PacketSize  int
	InitialRate float64
	MinRate     float64
	MaxRate     float64
	InitialRTT  float64
	ReorderGap  int64
	FineGrain   bool
}

func (c *refConfig) setDefaults() {
	if c.PacketSize <= 0 {
		c.PacketSize = 512
	}
	if c.InitialRTT <= 0 {
		c.InitialRTT = 0.1
	}
	if c.InitialRate <= 0 {
		c.InitialRate = 2 * float64(c.PacketSize) / c.InitialRTT
	}
	if c.MinRate <= 0 {
		c.MinRate = float64(c.PacketSize) / 2.0 // one packet per 2s floor
	}
	if c.ReorderGap <= 0 {
		c.ReorderGap = 3
	}
}

type refBackoff struct {
	Time     float64
	OldRate  float64
	NewRate  float64
	LostSeqs []int64
}

type refInstruments struct {
	Backoffs *metrics.Counter
	Timeouts *metrics.Counter
	SRTT     *metrics.Histogram
	AckGap   *metrics.Histogram
}

type refFineGrain struct {
	enabled    bool
	srttShort  float64
	srttLong   float64
	haveSample bool
}

func (f *refFineGrain) sample(rtt float64) {
	if !f.enabled || rtt <= 0 {
		return
	}
	if !f.haveSample {
		f.srttShort, f.srttLong = rtt, rtt
		f.haveSample = true
		return
	}
	f.srttShort += 1.0 / 4.0 * (rtt - f.srttShort)
	f.srttLong += 1.0 / 32.0 * (rtt - f.srttLong)
}

func (f *refFineGrain) factor() float64 {
	if !f.enabled || !f.haveSample || f.srttLong <= 0 {
		return 1
	}
	r := f.srttShort / f.srttLong
	if r < 0.5 {
		return 0.5
	}
	if r > 2.0 {
		return 2.0
	}
	return r
}

type refSender struct {
	cfg refConfig

	rate float64

	srtt    float64
	rttvar  float64
	timeout float64
	gotRTT  bool
	peakRTT float64

	outstanding map[int64]float64 // sequence -> send time
	nextSeq     int64
	highestAck  int64

	backoffFence float64

	fg refFineGrain

	ins       *refInstruments
	lastAckAt float64

	lost    []int64
	scratch refBackoff

	Sent      int64
	Acked     int64
	Lost      int64
	Backoffs  int64
	TimeoutEv int64
}

func newRefSender(cfg refConfig) *refSender {
	cfg.setDefaults()
	return &refSender{
		cfg:         cfg,
		rate:        cfg.InitialRate,
		srtt:        cfg.InitialRTT,
		rttvar:      cfg.InitialRTT / 2,
		timeout:     cfg.InitialRTT + 2*cfg.InitialRTT,
		outstanding: make(map[int64]float64),
		highestAck:  -1,
		lastAckAt:   -1,
		fg:          refFineGrain{enabled: cfg.FineGrain},
	}
}

func (s *refSender) IPG() float64 {
	return float64(s.cfg.PacketSize) / s.rate * s.fg.factor()
}

func (s *refSender) ConservativeSlope() float64 {
	rtt := s.peakRTT
	if rtt <= 0 {
		rtt = s.srtt
	}
	return float64(s.cfg.PacketSize) / (rtt * rtt)
}

func (s *refSender) Counters() transport.Counters {
	return transport.Counters{Sent: s.Sent, Acked: s.Acked, Lost: s.Lost, Backoffs: s.Backoffs, Timeouts: s.TimeoutEv}
}

func (s *refSender) OnSend(now float64) int64 {
	seq := s.nextSeq
	s.nextSeq++
	s.outstanding[seq] = now
	s.Sent++
	return seq
}

func (s *refSender) OnAck(now float64, seq int64) *refBackoff {
	if s.ins != nil {
		if s.lastAckAt >= 0 {
			s.ins.AckGap.Observe(now - s.lastAckAt)
		}
		s.lastAckAt = now
	}
	if seq < 0 || seq >= s.nextSeq {
		return nil // never sent: nothing to acknowledge, nothing newly lost
	}
	if sendTime, ok := s.outstanding[seq]; ok {
		delete(s.outstanding, seq)
		s.Acked++
		s.updateRTT(now - sendTime)
		s.fg.sample(now - sendTime)
	}
	if seq > s.highestAck {
		s.highestAck = seq
	}
	// ACK-based loss detection: any packet still outstanding whose
	// sequence trails the highest ACK by at least the reorder gap is
	// considered lost.
	s.lost = s.lost[:0]
	for o := range s.outstanding {
		if o <= s.highestAck-s.cfg.ReorderGap {
			s.lost = append(s.lost, o)
			delete(s.outstanding, o)
			s.Lost++
		}
	}
	if len(s.lost) == 0 {
		return nil
	}
	return s.lossEvent(now, s.lost)
}

func (s *refSender) Step(now float64) *refBackoff {
	// Timeout-based loss detection.
	s.lost = s.lost[:0]
	for o, st := range s.outstanding {
		if now-st > s.timeout {
			s.lost = append(s.lost, o)
			delete(s.outstanding, o)
			s.Lost++
		}
	}
	if len(s.lost) > 0 {
		s.TimeoutEv++
		if s.ins != nil {
			s.ins.Timeouts.Inc()
		}
		return s.lossEvent(now, s.lost)
	}
	// Additive increase: one packet per SRTT.
	s.rate += float64(s.cfg.PacketSize) / s.srtt
	if s.cfg.MaxRate > 0 && s.rate > s.cfg.MaxRate {
		s.rate = s.cfg.MaxRate
	}
	return nil
}

// lossEvent applies one multiplicative decrease per loss cluster: losses
// of packets sent before the current backoff fence belong to the cluster
// already reacted to.
func (s *refSender) lossEvent(now float64, lost []int64) *refBackoff {
	if now < s.backoffFence {
		return nil // still reacting to the previous cluster
	}
	old := s.rate
	s.rate /= 2
	if s.rate < s.cfg.MinRate {
		s.rate = s.cfg.MinRate
	}
	s.Backoffs++
	if s.ins != nil {
		s.ins.Backoffs.Inc()
	}
	// One SRTT of grace: losses detected within it are the same cluster.
	s.backoffFence = now + s.srtt
	s.scratch = refBackoff{Time: now, OldRate: old, NewRate: s.rate, LostSeqs: lost}
	return &s.scratch
}

func (s *refSender) updateRTT(sample float64) {
	if sample <= 0 {
		return
	}
	if !s.gotRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.gotRTT = true
	} else {
		const alpha, beta = 1.0 / 8.0, 1.0 / 4.0
		s.rttvar = (1-beta)*s.rttvar + beta*math.Abs(s.srtt-sample)
		s.srtt = (1-alpha)*s.srtt + alpha*sample
	}
	s.timeout = s.srtt + 4*s.rttvar
	if s.timeout < 2*s.srtt {
		s.timeout = 2 * s.srtt
	}
	if s.timeout < 0.02 { // TCP's floor, as seqwin.MinRTO
		s.timeout = 0.02
	}
	// Peak envelope: jumps up with SRTT, decays slowly (~1% per sample).
	if s.srtt > s.peakRTT {
		s.peakRTT = s.srtt
	} else {
		s.peakRTT += 0.01 * (s.srtt - s.peakRTT)
	}
	if s.ins != nil {
		s.ins.SRTT.Observe(s.srtt)
	}
}

func (s *refSender) Instrument(reg *metrics.Registry, prefix string) {
	s.ins = &refInstruments{
		Backoffs: reg.Counter(prefix + ".backoffs"),
		Timeouts: reg.Counter(prefix + ".timeouts"),
		SRTT:     reg.Histogram(prefix+".srtt", metrics.HistogramOpts{}),
		AckGap:   reg.Histogram(prefix+".ackgap", metrics.HistogramOpts{}),
	}
	reg.CounterFunc(prefix+".sent", func() int64 { return s.Sent })
	reg.CounterFunc(prefix+".acked", func() int64 { return s.Acked })
	reg.CounterFunc(prefix+".lost", func() int64 { return s.Lost })
	reg.GaugeFunc(prefix+".rate", func() float64 { return s.rate })
}

// traceFamily is one shape of differential trace.
type traceFamily struct {
	name   string
	traces int
	cfg    func(it int) refConfig
	// storm opens every phase with a run of loss clusters spaced more
	// than an SRTT apart and no loss-free Step between them, which
	// halves the rate down to its floor.
	storm bool
	// instrumented attaches instruments to both sides and requires
	// equal registry snapshots at the end of the trace.
	instrumented bool
}

var traceFamilies = []traceFamily{
	{name: "plain", traces: 400, cfg: func(it int) refConfig {
		return refConfig{PacketSize: 512, InitialRTT: 0.04, InitialRate: 20_000, FineGrain: it%5 == 0}
	}},
	{name: "finegrain-capped", traces: 40, cfg: func(int) refConfig {
		return refConfig{PacketSize: 512, InitialRTT: 0.04, InitialRate: 20_000, MaxRate: 24_000, FineGrain: true}
	}},
	{name: "loss-storm", traces: 40, storm: true, cfg: func(it int) refConfig {
		return refConfig{PacketSize: 512, InitialRTT: 0.04, InitialRate: 20_000, FineGrain: it%2 == 0}
	}},
	{name: "instrumented", traces: 40, instrumented: true, cfg: func(it int) refConfig {
		return refConfig{PacketSize: 512, InitialRTT: 0.04, InitialRate: 20_000, MaxRate: 60_000, FineGrain: it%2 == 0}
	}},
}

// TestLossDetectionDifferentialMapVsWindow drives the oracle and the
// real Sender through seeded random traces of sends, in-order,
// reordered, duplicate and never-sent ACKs, and Step calls with and
// without timeouts, and requires the same Backoff (time, rates, lost
// set — the window's list must also be ascending), counters, rate,
// SRTT, IPG, fine-grain factor, step interval, conservative slope and
// Outstanding() after every call, bitwise. Bursts without ACKs grow the
// ring several times, steady phases wrap it, and every trace drains the
// window to empty and refills it; some traces send with times that do
// not rise with sequence, which the timeout scan must not rely on.
//
// The two sides agree wherever the rate stays inside [floor, 2·MaxRate],
// which every Step after the first guarantees; the families keep
// InitialRate inside it too.
func TestLossDetectionDifferentialMapVsWindow(t *testing.T) {
	for _, fam := range traceFamilies {
		t.Run(fam.name, func(t *testing.T) { runTraceFamily(t, fam) })
	}
}

func runTraceFamily(t *testing.T, fam traceFamily) {
	traces := fam.traces
	if testing.Short() {
		traces = (traces + 5) / 6
	}
	var peak, sent, atFloor, capped, observed int64
	hasCap := false
	drainRefills := 0
	for it := 0; it < traces; it++ {
		rng := rand.New(rand.NewSource(int64(it)))
		cfg := fam.cfg(it)
		ref := newRefSender(cfg)
		win := NewSender(Config{PacketSize: cfg.PacketSize, InitialRate: cfg.InitialRate,
			MaxRate: cfg.MaxRate, InitialRTT: cfg.InitialRTT, FineGrain: cfg.FineGrain})
		unordered := it%3 == 0 // send times may step back
		var refReg, winReg *metrics.Registry
		if fam.instrumented {
			refReg, winReg = metrics.NewRegistry(), metrics.NewRegistry()
			ref.Instrument(refReg, "rap")
			win.Instrument(winReg, "rap", transport.NewInstruments(winReg, "rap"))
		}

		now := 0.0
		var pending []int64 // sent, ACK not yet delivered
		same := func(what string, rb *refBackoff, wb *transport.Backoff) {
			t.Helper()
			if (rb == nil) != (wb == nil) {
				t.Fatalf("trace %d t=%.4f %s: backoff ref %v, real %v", it, now, what, rb, wb)
			}
			if rb != nil {
				if rb.Time != wb.Time || rb.OldRate != wb.OldRate || rb.NewRate != wb.NewRate {
					t.Fatalf("trace %d t=%.4f %s: backoff ref %+v, real %+v", it, now, what, *rb, *wb)
				}
				if !slices.IsSorted(wb.LostSeqs) {
					t.Fatalf("trace %d t=%.4f %s: window lost list not ascending: %v", it, now, what, wb.LostSeqs)
				}
				want := slices.Clone(rb.LostSeqs)
				slices.Sort(want)
				if !slices.Equal(want, wb.LostSeqs) {
					t.Fatalf("trace %d t=%.4f %s: lost ref %v, real %v", it, now, what, want, wb.LostSeqs)
				}
			}
			if rc, wc := ref.Counters(), win.Counters(); rc != wc {
				t.Fatalf("trace %d t=%.4f %s: counters ref %+v, real %+v", it, now, what, rc, wc)
			}
			if len(ref.outstanding) != win.Outstanding() {
				t.Fatalf("trace %d t=%.4f %s: outstanding ref %d, real %d", it, now, what, len(ref.outstanding), win.Outstanding())
			}
			if ref.rate != win.Rate() || ref.srtt != win.SRTT() || ref.IPG() != win.IPG() ||
				ref.fg.factor() != win.FineGrainFactor() || ref.srtt != win.StepInterval() ||
				ref.ConservativeSlope() != win.ConservativeSlope() {
				t.Fatalf("trace %d t=%.4f %s: ref rate=%v srtt=%v ipg=%v fine=%v slope=%v, real rate=%v srtt=%v ipg=%v fine=%v step=%v slope=%v",
					it, now, what, ref.rate, ref.srtt, ref.IPG(), ref.fg.factor(), ref.ConservativeSlope(),
					win.Rate(), win.SRTT(), win.IPG(), win.FineGrainFactor(), win.StepInterval(), win.ConservativeSlope())
			}
			if n := int64(win.Outstanding()); n > peak {
				peak = n
			}
			if win.Rate() == float64(cfg.PacketSize)/2 {
				atFloor++
			}
			if cfg.MaxRate > 0 {
				hasCap = true
				if win.Rate() == cfg.MaxRate {
					capped++
				}
			}
		}
		send := func() {
			at := now
			if unordered {
				at -= rng.Float64() * 0.02
			}
			rs, ws := ref.OnSend(at), win.OnSend(at)
			if rs != ws {
				t.Fatalf("trace %d: send seq ref %d, real %d", it, rs, ws)
			}
			pending = append(pending, rs)
			same("OnSend", nil, nil)
		}
		ack := func(what string, seq int64) {
			same(what, ref.OnAck(now, seq), win.OnAck(now, seq))
		}
		ackPending := func(i int) {
			seq := pending[i]
			pending = slices.Delete(pending, i, i+1)
			ack("OnAck", seq)
		}
		step := func() {
			same("Step", ref.Step(now), win.Step(now))
		}
		storm := func() {
			for i := 12 + rng.Intn(8); i > 0; i-- {
				for k := 0; k < 5; k++ {
					now += 0.0005
					send()
				}
				now += 0.04
				if rng.Intn(4) == 0 {
					// The ACKs never come: the cluster is found by timeout.
					pending = pending[:len(pending)-5]
					now += 10
					step()
				} else {
					// Only the last ACK comes: the gap exposes the first two.
					ackPending(len(pending) - 1)
					pending = pending[:len(pending)-4]
				}
				now += 3 * win.SRTT()
			}
		}
		drain := func() {
			if rng.Intn(2) == 0 {
				// Every ACK in flight arrives, in random order.
				for len(pending) > 0 {
					now += 0.0005
					ackPending(rng.Intn(len(pending)))
				}
			} else {
				// The peer goes silent: everything times out.
				pending = pending[:0]
				now += 10
				step()
			}
			if win.Outstanding() != 0 {
				t.Fatalf("trace %d: %d outstanding after a drain", it, win.Outstanding())
			}
		}

		for phase := 0; phase < 6; phase++ {
			if fam.storm {
				storm()
			}
			// Steady traffic: the ring wraps many times at a fixed size.
			for op := 150 + rng.Intn(150); op > 0; op-- {
				now += rng.Float64() * 0.004
				switch k := rng.Intn(20); {
				case k < 8:
					send()
				case k < 13: // oldest pending ACK arrives
					if len(pending) > 0 {
						ackPending(0)
					}
				case k < 15: // a later one overtakes it
					if len(pending) > 0 {
						ackPending(rng.Intn(len(pending)))
					}
				case k < 16: // its ACK never comes
					if len(pending) > 0 {
						pending = slices.Delete(pending, 0, 1)
					}
				case k < 17: // duplicate of something once sent
					if n := ref.Sent; n > 0 {
						ack("duplicate OnAck", rng.Int63n(n))
					}
				case k < 18: // never sent: beyond the window, far beyond, negative
					ack("never-sent OnAck", []int64{ref.Sent, ref.Sent + 1 + rng.Int63n(5000), -1 - rng.Int63n(5000)}[rng.Intn(3)])
				default:
					step()
				}
			}
			// A burst with no ACKs: the window outgrows the ring, twice
			// or more on the larger ones.
			for i := 20 + rng.Intn(150); i > 0; i-- {
				now += 0.0002
				send()
			}
			if rng.Intn(3) == 0 {
				step() // nothing is old enough yet
			}
			drain()
			drainRefills++
		}
		sent += ref.Sent
		if ref.Backoffs == 0 || ref.Lost == 0 {
			t.Fatalf("trace %d is vacuous: backoffs=%d lost=%d", it, ref.Backoffs, ref.Lost)
		}
		if fam.instrumented {
			rs, ws := refReg.Snapshot(), winReg.Snapshot()
			if !reflect.DeepEqual(rs, ws) {
				t.Fatalf("trace %d: registry snapshots differ:\nref  %+v\nreal %+v", it, rs, ws)
			}
			observed += ws.Histograms["rap.srtt"].Count + ws.Histograms["rap.ackgap"].Count
			if ws.Counters["rap.backoffs"] != ref.Backoffs || ws.Counters["rap.timeouts"] != ref.TimeoutEv {
				t.Fatalf("trace %d: instruments backoffs=%d timeouts=%d, counters %d/%d", it,
					ws.Counters["rap.backoffs"], ws.Counters["rap.timeouts"], ref.Backoffs, ref.TimeoutEv)
			}
		}
	}
	// The first ring holds 16 sequences: a window of 33 or more has
	// doubled it at least twice.
	if peak <= 128 {
		t.Fatalf("peak window %d: growth past the first ring not exercised enough", peak)
	}
	if sent < int64(traces)*500 || drainRefills == 0 {
		t.Fatalf("differential too small: %d sends, %d drain/refill cycles", sent, drainRefills)
	}
	if fam.storm && atFloor == 0 {
		t.Fatal("loss storm never pinned the rate at the floor")
	}
	if hasCap && capped == 0 {
		t.Fatal("rate never reached the MaxRate cap")
	}
	if fam.instrumented && observed == 0 {
		t.Fatal("instrumented traces observed nothing")
	}
}
