package tcp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"qav/internal/sim"
)

// diffSendBoards compares every externally observable fact of two
// boards over the window [lo, hi), returning a description of the first
// mismatch ("" when identical).
func diffSendBoards(ref, win sendBoard, lo, hi int64) string {
	if r, w := ref.lostCount(), win.lostCount(); r != w {
		return fmt.Sprintf("lostCount ref=%d win=%d", r, w)
	}
	if r, w := ref.pipe(), win.pipe(); r != w {
		return fmt.Sprintf("pipe ref=%d win=%d", r, w)
	}
	rs, rok := ref.nextLost()
	ws, wok := win.nextLost()
	if rs != ws || rok != wok {
		return fmt.Sprintf("nextLost ref=%d,%v win=%d,%v", rs, rok, ws, wok)
	}
	for q := lo; q < hi; q++ {
		if r, w := ref.sacked(q), win.sacked(q); r != w {
			return fmt.Sprintf("sacked(%d) ref=%v win=%v", q, r, w)
		}
		if r, w := ref.lost(q), win.lost(q); r != w {
			return fmt.Sprintf("lost(%d) ref=%v win=%v", q, r, w)
		}
		if r, w := ref.rtxOut(q), win.rtxOut(q); r != w {
			return fmt.Sprintf("rtxOut(%d) ref=%v win=%v", q, r, w)
		}
	}
	return ""
}

// boardInvariants recounts the windowed board's kept counts from its
// bits and checks the inference watermark: every sequence of [base, wm)
// is sacked or lost. It returns the first violation, or "".
func boardInvariants(b *windowedSendBoard) string {
	lost, pending, excl := 0, 0, 0
	for q := b.base; q < b.high; q++ {
		s, l, r := b.sacked(q), b.lost(q), b.rtxOut(q)
		if l {
			lost++
		}
		if l && !r {
			pending++
		}
		if s || l && !r {
			excl++
		}
	}
	if lost != b.nLost || pending != b.nPending || excl != b.nExcl {
		return fmt.Sprintf("counts lost/pending/excluded kept %d/%d/%d, bits say %d/%d/%d",
			b.nLost, b.nPending, b.nExcl, lost, pending, excl)
	}
	if b.wm < b.base || b.wm > b.high {
		return fmt.Sprintf("watermark %d outside the window [%d,%d)", b.wm, b.base, b.high)
	}
	for q := b.base; q < b.wm; q++ {
		if !b.sacked(q) && !b.lost(q) {
			return fmt.Sprintf("watermark %d above %d, which is neither sacked nor lost", b.wm, q)
		}
	}
	return ""
}

// TestScoreboardDifferentialRandom drives the map reference and the
// windowed implementation through >= 10k randomized operation traces —
// sends, SACK blocks, loss inference, retransmissions, cumack advances,
// and RTO storms — asserting identical observable state, and the
// windowed board's counts and watermark, after every step.
func TestScoreboardDifferentialRandom(t *testing.T) {
	iters := 10_000
	if testing.Short() {
		iters = 500
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(it)))
		ref, win := newMapSendBoard(), newWindowedSendBoard()
		lo, hi := int64(0), int64(0) // [highAck, nextSeq)
		steps := 40 + rng.Intn(160)
		// A few traces use windows wide enough to force ring growth.
		wide := it%97 == 0
		for op := 0; op < steps; op++ {
			switch k := rng.Intn(10); {
			case k < 3: // send new data
				n := int64(1 + rng.Intn(8))
				if wide {
					n += int64(rng.Intn(300))
				}
				for i := int64(0); i < n; i++ {
					ref.extend(hi)
					win.extend(hi)
					hi++
				}
			case k < 5: // SACK arrival + loss inference
				if hi == lo {
					continue
				}
				// Up to three blocks, as an ACK carries them: mostly
				// short, some spanning several words of the ring.
				hs := int64(-1)
				for i := 0; i < 1+rng.Intn(3); i++ {
					start := lo + rng.Int63n(hi-lo)
					n := int64(1 + rng.Intn(6))
					if rng.Intn(4) == 0 {
						n += int64(rng.Intn(200))
					}
					end := start + n
					if end > hi {
						end = hi
					}
					ref.markSackedRange(start, end)
					win.markSackedRange(start, end)
					if end-1 > hs {
						hs = end - 1
					}
				}
				ref.inferLost(lo, hs)
				win.inferLost(lo, hs)
			case k < 6: // retransmit the next lost hole
				rs, rok := ref.nextLost()
				ws, wok := win.nextLost()
				if rs != ws || rok != wok {
					t.Fatalf("iter %d step %d: nextLost ref=%d,%v win=%d,%v", it, op, rs, rok, ws, wok)
				}
				if rok {
					ref.markRtxOut(rs)
					win.markRtxOut(ws)
				}
			case k < 7: // triple-dupack fallback: first hole is lost
				if hi > lo {
					ref.markLost(lo)
					win.markLost(lo)
				}
			case k < 9: // cumulative ack advances
				if hi == lo {
					continue
				}
				to := lo + 1 + rng.Int63n(hi-lo)
				ref.advance(lo, to)
				win.advance(lo, to)
				lo = to
			default: // RTO: everything unsacked is lost
				ref.markAllUnsackedLost(lo, hi)
				win.markAllUnsackedLost(lo, hi)
			}
			if d := diffSendBoards(ref, win, lo, hi); d != "" {
				t.Fatalf("iter %d step %d window [%d,%d): %s", it, op, lo, hi, d)
			}
			if d := boardInvariants(win); d != "" {
				t.Fatalf("iter %d step %d window [%d,%d): %s", it, op, lo, hi, d)
			}
		}
	}
}

// TestScoreboardWatermarkDirected pins the kept counts and the inference
// watermark where they move most: an RTO marks every unsacked sequence
// lost, so the watermark jumps to nextSeq, and inference after new sends
// starts there; the rings grow while losses are pending, and the counts
// and the next retransmission survive the re-placement.
func TestScoreboardWatermarkDirected(t *testing.T) {
	check := func(t *testing.T, ref *mapSendBoard, win *windowedSendBoard) {
		t.Helper()
		if d := diffSendBoards(ref, win, win.base, win.high); d != "" {
			t.Fatal(d)
		}
		if d := boardInvariants(win); d != "" {
			t.Fatal(d)
		}
	}
	send := func(ref *mapSendBoard, win *windowedSendBoard, n int64) {
		for i := int64(0); i < n; i++ {
			ref.extend(win.high)
			win.extend(win.high)
		}
	}
	both := func(ref *mapSendBoard, win *windowedSendBoard, f func(b sendBoard)) {
		f(ref)
		f(win)
	}

	t.Run("rto", func(t *testing.T) {
		ref, win := newMapSendBoard(), newWindowedSendBoard()
		send(ref, win, 100)
		both(ref, win, func(b sendBoard) { b.advance(0, 10) })
		both(ref, win, func(b sendBoard) { b.markSackedRange(40, 45) })
		both(ref, win, func(b sendBoard) { b.inferLost(10, 44) })
		if win.wm != 42 {
			t.Fatalf("watermark %d after inference, want the third-highest sacked, 42", win.wm)
		}
		both(ref, win, func(b sendBoard) { b.markRtxOut(10) })
		check(t, ref, win)
		both(ref, win, func(b sendBoard) { b.markAllUnsackedLost(10, 100) })
		if win.wm != 100 {
			t.Fatalf("watermark %d after the RTO, want nextSeq 100", win.wm)
		}
		if _, pending := win.nextLost(); !pending || win.pipe() != 0 {
			t.Fatalf("after the RTO pipe %d, want 0 with losses pending", win.pipe())
		}
		check(t, ref, win)
		// New data above the watermark; inference marks only it.
		send(ref, win, 20)
		both(ref, win, func(b sendBoard) { b.markSackedRange(110, 113) })
		both(ref, win, func(b sendBoard) { b.inferLost(10, 112) })
		if win.wm != 110 {
			t.Fatalf("watermark %d, want 110", win.wm)
		}
		check(t, ref, win)
		both(ref, win, func(b sendBoard) { b.advance(10, 105) })
		check(t, ref, win)
	})

	t.Run("ring growth with losses pending", func(t *testing.T) {
		ref, win := newMapSendBoard(), newWindowedSendBoard()
		send(ref, win, minRingSeqs-8)
		both(ref, win, func(b sendBoard) { b.advance(0, 30) })
		both(ref, win, func(b sendBoard) { b.markSackedRange(200, 210) })
		both(ref, win, func(b sendBoard) { b.inferLost(30, 209) })
		both(ref, win, func(b sendBoard) { b.markRtxOut(30) })
		check(t, ref, win)
		before := len(win.sack.words)
		send(ref, win, 3*minRingSeqs)
		if len(win.sack.words) == before {
			t.Fatal("rings did not grow")
		}
		if seq, ok := win.nextLost(); !ok || seq != 31 {
			t.Fatalf("next loss after growth %d,%v, want 31", seq, ok)
		}
		check(t, ref, win)
	})
}

// TestInferLostDirected pins the word-parallel inferLost against the
// map reference where its index arithmetic has edges: the third-highest
// SACKed sequence in the top ring word, in a lower word and exactly at
// lo; fewer than three SACKed; [lo, hiSacked] across a 64-bit word
// boundary and across the ring wrap; a window larger than minRingSeqs.
func TestInferLostDirected(t *testing.T) {
	type block struct{ lo, hi int64 }
	cases := []struct {
		name     string
		lo, hi   int64 // window [highAck, nextSeq)
		sacked   []block
		lost     []int64 // marked lost (and retransmitted) beforehand
		hiSacked int64
		wantLost int // lostCount afterwards
	}{
		{"third in top word", 0, 40, []block{{30, 33}}, nil, 32, 30},
		{"third in lower word", 0, 200, []block{{10, 11}, {70, 71}, {190, 191}}, nil, 190, 10},
		{"third two words down", 0, 250, []block{{5, 6}, {100, 101}, {249, 250}}, nil, 249, 5},
		{"third exactly at lo", 7, 40, []block{{7, 8}, {20, 21}, {30, 31}}, nil, 30, 0},
		{"third just above lo", 7, 40, []block{{8, 9}, {20, 21}, {30, 31}}, nil, 30, 1},
		{"two sacked", 0, 100, []block{{40, 41}, {90, 91}}, nil, 90, 0},
		{"none sacked at hiSacked", 0, 100, []block{{40, 43}}, nil, 60, 40},
		{"hiSacked unsacked, two below", 0, 100, []block{{40, 42}}, nil, 60, 0},
		{"straddles a word boundary", 60, 70, []block{{62, 63}, {64, 65}, {66, 67}}, nil, 66, 2},
		{"third is bit 63", 0, 70, []block{{63, 64}, {65, 66}, {67, 68}}, nil, 67, 63},
		{"third is bit 0 of the next word", 0, 70, []block{{64, 65}, {66, 67}, {68, 69}}, nil, 68, 64},
		{"straddles the ring wrap", minRingSeqs - 10, minRingSeqs + 10,
			[]block{{minRingSeqs - 2, minRingSeqs - 1}, {minRingSeqs + 1, minRingSeqs + 2}, {minRingSeqs + 5, minRingSeqs + 6}},
			nil, minRingSeqs + 5, 8},
		{"wrap, third below it", 3*minRingSeqs - 100, 3*minRingSeqs + 100,
			[]block{{3*minRingSeqs - 50, 3*minRingSeqs - 49}, {3*minRingSeqs + 20, 3*minRingSeqs + 22}},
			nil, 3*minRingSeqs + 21, 50},
		{"window larger than minRingSeqs", 100, 100 + 5*minRingSeqs,
			[]block{{900, 910}, {1200, 1201}, {1300, 1302}}, nil, 1301, 1090},
		{"already lost stay counted once", 0, 100, []block{{50, 53}}, []int64{3, 49, 60}, 52, 51},
		{"holes between blocks", 0, 300, []block{{100, 120}, {130, 150}, {160, 161}}, nil, 160, 110},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, win := newMapSendBoard(), newWindowedSendBoard()
			// Slide both boards up to lo first, so the window sits
			// where the case says it does in the ring.
			for seq := int64(0); seq < tc.hi; seq++ {
				ref.extend(seq)
				win.extend(seq)
				if seq < tc.lo && seq%64 == 63 {
					ref.advance(seq-63, seq+1)
					win.advance(seq-63, seq+1)
				}
			}
			ref.advance(tc.lo-tc.lo%64, tc.lo)
			win.advance(tc.lo-tc.lo%64, tc.lo)
			for _, b := range tc.sacked {
				ref.markSackedRange(b.lo, b.hi)
				win.markSackedRange(b.lo, b.hi)
			}
			for _, seq := range tc.lost {
				ref.markLost(seq)
				win.markLost(seq)
				ref.markRtxOut(seq)
				win.markRtxOut(seq)
			}
			ref.inferLost(tc.lo, tc.hiSacked)
			win.inferLost(tc.lo, tc.hiSacked)
			if d := diffSendBoards(ref, win, tc.lo, tc.hi); d != "" {
				t.Fatalf("window [%d,%d) hiSacked %d: %s", tc.lo, tc.hi, tc.hiSacked, d)
			}
			if got := win.lostCount(); got != tc.wantLost {
				t.Fatalf("lostCount = %d, want %d", got, tc.wantLost)
			}
			// A sequence lost before the call keeps its retransmission
			// mark; a newly lost one has none.
			for _, seq := range tc.lost {
				if !win.rtxOut(seq) {
					t.Fatalf("inferLost cleared rtx-out of already-lost %d", seq)
				}
			}
		})
	}
}

// TestRecvBoardDifferential feeds both receiver boards randomized
// arrival orders with duplicates, reordering, and stale (already
// cumacked) retransmissions. Cumulative acks must match exactly; SACK
// blocks must match once the reference's blocks are filtered to the
// live window — the map reference reports stale below-cumack runs
// (the unbounded-growth bug) which the sender provably ignores, while
// the windowed board drops them at arrival.
func TestRecvBoardDifferential(t *testing.T) {
	iters := 10_000
	if testing.Short() {
		iters = 500
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(^it)))
		ref, win := newMapRecvBoard(), newWindowedRecvBoard()
		var next int64 // highest sequence "sent" so far
		for op := 0; op < 60+rng.Intn(100); op++ {
			var seq int64
			switch k := rng.Intn(10); {
			case k < 6: // in-order-ish new data (may skip = loss)
				next += int64(rng.Intn(3)) // 0 = dup of last, 2 = gap
				seq = next
				if it%53 == 0 {
					next += int64(rng.Intn(400)) // force ring growth
				}
			case k < 9: // retransmission of something in the recent window
				back := rng.Int63n(40) + 1
				seq = next - back
				if seq < 0 {
					seq = 0
				}
			default: // stale spurious retransmission, possibly far below
				seq = rng.Int63n(max64(ref.cumack(), 1))
			}
			ref.add(seq)
			win.add(seq)
			if ref.cumack() != win.cumack() {
				t.Fatalf("iter %d: cumack ref=%d win=%d after add(%d)", it, ref.cumack(), win.cumack(), seq)
			}
			rb := filterBlocks(ref.appendSack(nil), ref.cumack())
			wb := win.appendSack(nil)
			if len(rb) != len(wb) {
				t.Fatalf("iter %d: blocks ref=%+v win=%+v (cum=%d)", it, rb, wb, ref.cumack())
			}
			for i := range rb {
				if rb[i] != wb[i] {
					t.Fatalf("iter %d: block %d ref=%+v win=%+v", it, i, rb[i], wb[i])
				}
			}
		}
	}
}

// TestAppendSackDirected pins the word-at-a-time appendSack against the
// map reference where runs meet ring-word edges: a run across a 64-bit
// boundary, one longer than a word, one ending right above the
// cumulative ack, runs across the ring wrap, and more than three runs.
func TestAppendSackDirected(t *testing.T) {
	type run struct{ lo, hi int64 }
	cases := []struct {
		name string
		cum  int64 // sequences below it arrive first, in order
		runs []run
	}{
		{"one run in a word", 0, []run{{5, 9}}},
		{"run across a word boundary", 0, []run{{60, 70}}},
		{"run longer than a word", 3, []run{{10, 150}}},
		{"run ends on a word boundary", 0, []run{{40, 64}, {70, 71}}},
		{"run starts on a word boundary", 0, []run{{64, 80}, {127, 129}}},
		{"run right above the cumulative ack", 62, []run{{63, 66}}},
		{"single sequences either side of a boundary", 0, []run{{63, 64}, {65, 66}}},
		{"four runs keep the highest three", 0, []run{{2, 4}, {60, 68}, {100, 101}, {190, 200}}},
		{"across the ring wrap", minRingSeqs - 20, []run{{minRingSeqs - 10, minRingSeqs - 5}, {minRingSeqs - 2, minRingSeqs + 3}, {minRingSeqs + 9, minRingSeqs + 10}}},
		{"window larger than minRingSeqs", 100, []run{{130, 131}, {400, 900}, {1000, 1002}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, win := newMapRecvBoard(), newWindowedRecvBoard()
			for seq := int64(0); seq < tc.cum; seq++ {
				ref.add(seq)
				win.add(seq)
			}
			for _, r := range tc.runs {
				for seq := r.lo; seq < r.hi; seq++ {
					ref.add(seq)
					win.add(seq)
					rb, wb := ref.appendSack(nil), win.appendSack(nil)
					if !slices.Equal(rb, wb) {
						t.Fatalf("after add(%d): map %+v, windowed %+v", seq, rb, wb)
					}
				}
			}
			if ref.cumack() != tc.cum || win.cumack() != tc.cum {
				t.Fatalf("cumack map %d windowed %d, want %d", ref.cumack(), win.cumack(), tc.cum)
			}
			want := tc.runs
			if len(want) > 3 {
				want = want[len(want)-3:]
			}
			got := win.appendSack(nil)
			if len(got) != len(want) {
				t.Fatalf("blocks %+v, want %+v", got, want)
			}
			for i, r := range want {
				if got[i] != (sim.SackBlock{Start: r.lo, End: r.hi}) {
					t.Fatalf("blocks %+v, want %+v", got, want)
				}
			}
		})
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func filterBlocks(blocks []sim.SackBlock, cum int64) []sim.SackBlock {
	out := blocks[:0]
	for _, b := range blocks {
		if b.Start >= cum {
			out = append(out, b)
		}
	}
	return out
}

// txRecord is one transmit decision observed through testTxHook.
type txRecord struct {
	t    float64
	seq  int64
	retx bool
}

// refParts says which parts of a Source a differential run replaces with
// their test-only references.
type refParts struct{ mapBoards, rearmRTO bool }

func runDifferentialScenario(ref refParts, rate float64, queueBytes int, flows int, dur float64) ([][]txRecord, []string) {
	eng := sim.NewEngine()
	net := sim.NewDumbbell(eng, sim.DumbbellConfig{
		Rate: rate, Delay: 0.01, AccessDelay: 0.005, QueueBytes: queueBytes,
	})
	traces := make([][]txRecord, flows)
	stats := make([]string, flows)
	srcs := make([]*Source, flows)
	for i := 0; i < flows; i++ {
		s := NewSource(eng, net, Config{
			FlowID: i, PacketSize: 512, InitialRTT: net.BaseRTT(),
			Start: float64(i) * 0.037,
		})
		if ref.mapBoards {
			useMapBoards(s)
		}
		if ref.rearmRTO {
			useRearmRTO(s)
		}
		i := i
		s.testTxHook = func(seq int64, retx bool) {
			traces[i] = append(traces[i], txRecord{t: eng.Now(), seq: seq, retx: retx})
		}
		srcs[i] = s
	}
	eng.RunUntil(dur)
	for i, s := range srcs {
		stats[i] = fmt.Sprintf("sent=%d retx=%d acked=%d rto=%d fr=%d cwnd=%.6f",
			s.SentPkts, s.RetransPkts, s.AckedPkts, s.Timeouts, s.FastRecover, s.Cwnd())
	}
	return traces, stats
}

// TestTCPDifferentialMapVsWindowed runs whole lossy simulations with the
// Source as shipped and with its parts replaced by their references —
// the map scoreboards, the per-ACK cancel-and-rearm retransmission
// timer, and both (the Source as it was before either) — and requires
// the transmit decision streams (every sequence, timestamp, and
// retransmit flag) and final stats to be bit-for-bit identical. Covers
// RTO-heavy (tiny queue), fast-recovery (medium queue), multi-flow
// contention, and a large-window regime that forces ring growth.
func TestTCPDifferentialMapVsWindowed(t *testing.T) {
	cases := []struct {
		name       string
		rate       float64
		queueBytes int
		flows      int
		dur        float64
	}{
		{"rto-heavy", 30_000, 4 * 512, 1, 40},
		{"fast-recovery", 50_000, 16 * 512, 1, 40},
		{"contended", 50_000, 12 * 512, 4, 30},
		{"large-window", 4_000_000, 600 * 512, 1, 20},
	}
	refs := []struct {
		name string
		ref  refParts
	}{
		{"map-boards", refParts{mapBoards: true}},
		{"rearm-rto", refParts{rearmRTO: true}},
		{"both", refParts{mapBoards: true, rearmRTO: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wt, ws := runDifferentialScenario(refParts{}, tc.rate, tc.queueBytes, tc.flows, tc.dur)
			for _, r := range refs {
				mt, ms := runDifferentialScenario(r.ref, tc.rate, tc.queueBytes, tc.flows, tc.dur)
				for i := range ms {
					if ms[i] != ws[i] {
						t.Errorf("%s: flow %d stats differ:\nreference %s\nshipped   %s", r.name, i, ms[i], ws[i])
					}
					if len(mt[i]) != len(wt[i]) {
						t.Fatalf("%s: flow %d: %d transmissions under the reference, %d as shipped", r.name, i, len(mt[i]), len(wt[i]))
					}
					for j := range mt[i] {
						if mt[i][j] != wt[i][j] {
							t.Fatalf("%s: flow %d tx %d differs: reference %+v shipped %+v", r.name, i, j, mt[i][j], wt[i][j])
						}
					}
				}
			}
		})
	}
}

// lossyTCPRig builds a tiny-queue dumbbell with two competing TCP
// flows so losses (including RTOs) are plentiful.
func lossyTCPRig() (*sim.Engine, []*Source) {
	eng := sim.NewEngine()
	net := sim.NewDumbbell(eng, sim.DumbbellConfig{
		Rate: 30_000, Delay: 0.01, AccessDelay: 0.005, QueueBytes: 4 * 512,
	})
	srcs := make([]*Source, 2)
	for i := range srcs {
		srcs[i] = NewSource(eng, net, Config{
			FlowID: i, PacketSize: 512, InitialRTT: net.BaseRTT(), Start: float64(i) * 0.05,
		})
	}
	return eng, srcs
}

// TestAllocFreeSteadyStateTCPUnderLoss extends the TestAlloc* suite to
// TCP with active loss recovery: after warmup, continued lossy
// simulation must allocate nothing — the windowed scoreboards do all
// SACK/loss/retransmit bookkeeping in preallocated rings.
func TestAllocFreeSteadyStateTCPUnderLoss(t *testing.T) {
	eng, srcs := lossyTCPRig()
	eng.RunUntil(30) // warm: pools filled, rings sized, RTO machinery exercised
	retxBefore := srcs[0].RetransPkts + srcs[1].RetransPkts
	next := 30.0
	avg := testing.AllocsPerRun(50, func() {
		next += 0.5
		eng.RunUntil(next)
	})
	if avg != 0 {
		t.Fatalf("lossy TCP steady state allocates %.1f allocs per 0.5s slice, want 0", avg)
	}
	if retxAfter := srcs[0].RetransPkts + srcs[1].RetransPkts; retxAfter == retxBefore {
		t.Fatal("no retransmissions during the measured window — loss path not exercised")
	}
}

type nullReceiver struct{}

func (nullReceiver) Recv(*sim.Packet) {}

// spuriousRTORig is engineered to produce spurious retransmissions —
// the trigger for the historical sink.received leak. A deep queue plus
// a periodic instantaneous 80-packet burst adds a ~1.4s delay step that
// stalls the ACK clock past the (idle-state) RTO; the timeout
// retransmits packets that were merely queued, the originals then
// advance the cumulative ack, and the retransmissions arrive at the
// sink below it.
func spuriousRTORig(mapRef bool) (*sim.Engine, *Source) {
	eng := sim.NewEngine()
	net := sim.NewDumbbell(eng, sim.DumbbellConfig{
		Rate: 30_000, Delay: 0.01, AccessDelay: 0.005, QueueBytes: 120 * 512,
	})
	s := NewSource(eng, net, Config{
		FlowID: 0, PacketSize: 512, InitialRTT: net.BaseRTT(),
	})
	if mapRef {
		useMapBoards(s)
	}
	var burst func()
	burst = func() {
		for i := 0; i < 80; i++ {
			p := eng.Pool().Get()
			p.FlowID, p.Seq, p.Size, p.Kind = 99, 0, 512, sim.Data
			net.SendData(p, nullReceiver{})
		}
		eng.After(4, burst)
	}
	eng.At(1.0, burst)
	return eng, s
}

// TestTCPMemoryBoundedUnderLoss is the long-run regression test for the
// sink.received leak (tcp.go:310 in the map era): heap usage between
// two checkpoints of a lossy, spurious-RTO-heavy run must stay flat.
// Before the windowed scoreboard, every retransmission arriving below
// the receiver's cumulative ack stayed in the received map forever.
func TestTCPMemoryBoundedUnderLoss(t *testing.T) {
	eng, src := spuriousRTORig(false)
	eng.RunUntil(60) // settle pools, rings, and the event free list

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	eng.RunUntil(660) // 600 further simulated seconds of lossy traffic
	after := heap()

	if src.RetransPkts == 0 || src.Timeouts == 0 {
		t.Fatalf("run not lossy enough to regress the leak (retx=%d rto=%d)", src.RetransPkts, src.Timeouts)
	}
	// The map-era leak accrues ~2.5k stale entries (plus map bucket and
	// sort-scratch growth) over this window; windowed boards hold state
	// in fixed rings, so the heap must not move beyond GC noise.
	const slack = 64 << 10
	if after > before+slack {
		t.Fatalf("heap grew %d bytes across a 600s lossy window (before=%d after=%d): unbounded scoreboard state", after-before, before, after)
	}
}

// TestSinkStateBoundedVsMapLeak pins the leak itself: under the same
// spurious-RTO workload the map sink's received set grows with run
// length while the windowed sink's live span stays within the flow's
// window.
func TestSinkStateBoundedVsMapLeak(t *testing.T) {
	engM, srcM := spuriousRTORig(true)
	engM.RunUntil(120)
	mb := srcM.sink.board.(*mapRecvBoard)
	stale := 0
	for seq := range mb.received {
		if seq < mb.cum {
			stale++
		}
	}
	if stale < 100 {
		t.Fatalf("map sink accumulated only %d stale entries — rig no longer reproduces the leak", stale)
	}

	engW, srcW := spuriousRTORig(false)
	engW.RunUntil(120)
	wb := srcW.sink.board.(*windowedRecvBoard)
	if span := wb.high - wb.cum; span > 512 {
		t.Fatalf("windowed sink live span %d exceeds any plausible window", span)
	}
	if words := len(wb.bits.words); words*64 > 1024 {
		t.Fatalf("windowed sink ring grew to %d sequences", words*64)
	}
}

// TestWindowedBoardRingGrowth exercises grow() directly: live state
// must survive capacity doubling bit-for-bit.
func TestWindowedBoardRingGrowth(t *testing.T) {
	win, ref := newWindowedSendBoard(), newMapSendBoard()
	lo, hi := int64(0), int64(0)
	rng := rand.New(rand.NewSource(7))
	for hi < 5000 {
		for i := 0; i < 64; i++ {
			ref.extend(hi)
			win.extend(hi)
			if rng.Intn(3) == 0 {
				ref.markSacked(hi)
				win.markSacked(hi)
			} else if rng.Intn(4) == 0 {
				ref.markLost(hi)
				win.markLost(hi)
			}
			hi++
		}
		if d := diffSendBoards(ref, win, lo, hi); d != "" {
			t.Fatalf("after growth to window [%d,%d): %s", lo, hi, d)
		}
	}
	ref.advance(lo, hi-3)
	win.advance(lo, hi-3)
	if d := diffSendBoards(ref, win, hi-3, hi); d != "" {
		t.Fatalf("after advance: %s", d)
	}
}

var benchPipe int // keeps the pipe counts alive

// BenchmarkSendBoardAck times the windowed send board through one SACK
// recovery episode per iteration, making the calls Source.onAck and
// trySend make: the first packet of a 128-packet window is lost, each
// of the other 127 comes back as an ACK whose SACK block reaches it
// (absorb, infer, count the pipe, look for a loss to retransmit), and
// the retransmission's ACK advances the cumulative ack over the window.
func BenchmarkSendBoardAck(b *testing.B) {
	const window = 128
	board := newWindowedSendBoard()
	var base int64
	pipe := 0
	for i := 0; i < b.N; i++ {
		for seq := base; seq < base+window; seq++ {
			board.extend(seq)
		}
		for seq := base + 1; seq < base+window; seq++ {
			board.markSackedRange(base+1, seq+1)
			board.inferLost(base, seq)
			pipe += board.pipe()
			if lost, ok := board.nextLost(); ok {
				board.markRtxOut(lost)
			}
		}
		board.advance(base, base+window)
		base += window
	}
	benchPipe = pipe
}
