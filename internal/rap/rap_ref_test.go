package rap

import (
	"math/rand"
	"slices"
	"testing"
)

// refSender is the map-based loss detection the sequence-indexed window
// replaced — the pre-window OnSend/OnAck/Step bodies verbatim, plus the
// never-sent-sequence guard — kept as the oracle of the differential
// below. Rate, RTT and backoff state are the embedded Sender's own, so
// the two sides can only part ways over which sequences are outstanding
// and which are lost; the embedded Sender's window is never touched.
type refSender struct {
	*Sender
	outstanding map[int64]float64 // sequence -> send time
	nextSeq     int64
	highestAck  int64
	lost        []int64
}

func newRefSender(cfg Config) *refSender {
	return &refSender{
		Sender:      NewSender(cfg),
		outstanding: make(map[int64]float64),
		highestAck:  -1,
	}
}

func (r *refSender) Outstanding() int { return len(r.outstanding) }

func (r *refSender) OnSend(now float64) int64 {
	seq := r.nextSeq
	r.nextSeq++
	r.outstanding[seq] = now
	r.Sent++
	return seq
}

func (r *refSender) OnAck(now float64, seq int64) *Backoff {
	if seq < 0 || seq >= r.nextSeq {
		return nil
	}
	if sendTime, ok := r.outstanding[seq]; ok {
		delete(r.outstanding, seq)
		r.Acked++
		r.updateRTT(now - sendTime)
		r.fg.sample(now - sendTime)
	}
	if seq > r.highestAck {
		r.highestAck = seq
	}
	r.lost = r.lost[:0]
	for o := range r.outstanding {
		if o <= r.highestAck-r.cfg.ReorderGap {
			r.lost = append(r.lost, o)
			delete(r.outstanding, o)
			r.Lost++
		}
	}
	if len(r.lost) == 0 {
		return nil
	}
	return r.lossEvent(now, r.lost)
}

func (r *refSender) Step(now float64) *Backoff {
	r.lost = r.lost[:0]
	for o, st := range r.outstanding {
		if now-st > r.timeout {
			r.lost = append(r.lost, o)
			delete(r.outstanding, o)
			r.Lost++
		}
	}
	if len(r.lost) > 0 {
		r.TimeoutEv++
		return r.lossEvent(now, r.lost)
	}
	r.rate += float64(r.cfg.PacketSize) / r.srtt
	if r.cfg.MaxRate > 0 && r.rate > r.cfg.MaxRate {
		r.rate = r.cfg.MaxRate
	}
	return nil
}

// TestLossDetectionDifferentialMapVsWindow drives the map oracle and
// the real Sender through seeded random traces of sends, in-order,
// reordered, duplicate and never-sent ACKs, and Step calls with and
// without timeouts, and requires the same Backoff (time, rates, lost
// set — the window's list must also be ascending), counters, rate, SRTT
// and Outstanding() after every call. Bursts without ACKs grow the ring
// several times, steady phases wrap it, and every trace drains the
// window to empty and refills it; some traces send with times that do
// not rise with sequence, which the timeout scan must not rely on.
func TestLossDetectionDifferentialMapVsWindow(t *testing.T) {
	traces := 400
	if testing.Short() {
		traces = 60
	}
	var peak, sent int64
	drainRefills := 0
	for it := 0; it < traces; it++ {
		rng := rand.New(rand.NewSource(int64(it)))
		cfg := Config{PacketSize: 512, InitialRTT: 0.04, InitialRate: 20_000, FineGrain: it%5 == 0}
		ref, win := newRefSender(cfg), NewSender(cfg)
		unordered := it%3 == 0 // send times may step back

		now := 0.0
		var pending []int64 // sent, ACK not yet delivered
		same := func(what string, rb, wb *Backoff) {
			t.Helper()
			if (rb == nil) != (wb == nil) {
				t.Fatalf("trace %d t=%.4f %s: backoff map %v, window %v", it, now, what, rb, wb)
			}
			if rb != nil {
				if rb.Time != wb.Time || rb.OldRate != wb.OldRate || rb.NewRate != wb.NewRate {
					t.Fatalf("trace %d t=%.4f %s: backoff map %+v, window %+v", it, now, what, *rb, *wb)
				}
				if !slices.IsSorted(wb.LostSeqs) {
					t.Fatalf("trace %d t=%.4f %s: window lost list not ascending: %v", it, now, what, wb.LostSeqs)
				}
				want := slices.Clone(rb.LostSeqs)
				slices.Sort(want)
				if !slices.Equal(want, wb.LostSeqs) {
					t.Fatalf("trace %d t=%.4f %s: lost map %v, window %v", it, now, what, want, wb.LostSeqs)
				}
			}
			if ref.Sent != win.Sent || ref.Acked != win.Acked || ref.Lost != win.Lost ||
				ref.Backoffs != win.Backoffs || ref.TimeoutEv != win.TimeoutEv {
				t.Fatalf("trace %d t=%.4f %s: counters map sent=%d acked=%d lost=%d backoffs=%d timeouts=%d, window sent=%d acked=%d lost=%d backoffs=%d timeouts=%d",
					it, now, what, ref.Sent, ref.Acked, ref.Lost, ref.Backoffs, ref.TimeoutEv,
					win.Sent, win.Acked, win.Lost, win.Backoffs, win.TimeoutEv)
			}
			if ref.Outstanding() != win.Outstanding() {
				t.Fatalf("trace %d t=%.4f %s: outstanding map %d, window %d", it, now, what, ref.Outstanding(), win.Outstanding())
			}
			if ref.Rate() != win.Rate() || ref.SRTT() != win.SRTT() || ref.IPG() != win.IPG() {
				t.Fatalf("trace %d t=%.4f %s: map rate=%v srtt=%v ipg=%v, window rate=%v srtt=%v ipg=%v",
					it, now, what, ref.Rate(), ref.SRTT(), ref.IPG(), win.Rate(), win.SRTT(), win.IPG())
			}
			if n := int64(win.Outstanding()); n > peak {
				peak = n
			}
		}
		send := func() {
			at := now
			if unordered {
				at -= rng.Float64() * 0.02
			}
			rs, ws := ref.OnSend(at), win.OnSend(at)
			if rs != ws {
				t.Fatalf("trace %d: send seq map %d, window %d", it, rs, ws)
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
					if n := win.Sent; n > 0 {
						ack("duplicate OnAck", rng.Int63n(n))
					}
				case k < 18: // never sent: beyond the window, far beyond, negative
					ack("never-sent OnAck", []int64{win.Sent, win.Sent + 1 + rng.Int63n(5000), -1 - rng.Int63n(5000)}[rng.Intn(3)])
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
		sent += win.Sent
		if ref.Backoffs == 0 || ref.Lost == 0 {
			t.Fatalf("trace %d is vacuous: backoffs=%d lost=%d", it, ref.Backoffs, ref.Lost)
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
}
