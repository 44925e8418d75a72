package netio

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"testing"
	"time"

	"qav/internal/core"
	"qav/internal/flow"
	"qav/internal/transport"
)

func wtSess() *session { return &session{wslot: wheelNone} }

// collectImminent drains the imminent list into a slice (test helper).
func collectImminent(w *timingWheel) []*session {
	var out []*session
	for st := w.imminent; st != nil; st = st.wnext {
		out = append(out, st)
	}
	return out
}

func TestWheelFiresAtScheduledTick(t *testing.T) {
	w := &timingWheel{}
	st := wtSess()
	w.schedule(st, 5)
	if st.wslot != 5 || w.n != 1 {
		t.Fatalf("scheduled slot=%d n=%d, want slot 5 n 1", st.wslot, w.n)
	}
	w.advance(4)
	if w.imminent != nil {
		t.Fatal("fired before its tick")
	}
	w.advance(5)
	if st.wslot != wheelImminent || w.imminent != st {
		t.Fatalf("not imminent at its tick: slot=%d", st.wslot)
	}
	if w.n != 0 {
		t.Fatalf("resident count %d after fire, want 0", w.n)
	}
}

func TestWheelCascadeAcrossEpoch(t *testing.T) {
	w := &timingWheel{}
	st := wtSess()
	w.schedule(st, 300) // beyond level 0's 255-tick horizon
	if st.wslot < wheelSlots {
		t.Fatalf("tick 300 filed in level 0 slot %d", st.wslot)
	}
	w.advance(299)
	if st.wslot == wheelImminent {
		t.Fatal("fired a tick early")
	}
	if w.cascades != 1 {
		t.Fatalf("cascades=%d crossing the epoch, want 1", w.cascades)
	}
	if st.wslot < 0 || st.wslot >= wheelSlots {
		t.Fatalf("not cascaded into level 0: slot %d", st.wslot)
	}
	w.advance(300)
	if st.wslot != wheelImminent {
		t.Fatal("did not fire at its tick after cascading")
	}
}

func TestWheelWraparoundHighTicks(t *testing.T) {
	// Slot indices are tick & mask: behavior must be identical when the
	// absolute tick is far beyond several full wheel revolutions.
	w := &timingWheel{}
	w.advance(1 << 30)
	base := w.cur
	near, far := wtSess(), wtSess()
	w.schedule(near, base+7)
	w.schedule(far, base+wheelSlots+13)
	w.advance(base + 6)
	if near.wslot == wheelImminent {
		t.Fatal("near fired early")
	}
	w.advance(base + 7)
	if near.wslot != wheelImminent || far.wslot == wheelImminent {
		t.Fatalf("near=%d far=%d after tick %d", near.wslot, far.wslot, base+7)
	}
	w.advance(base + wheelSlots + 13)
	if far.wslot != wheelImminent {
		t.Fatal("far did not fire at its tick")
	}
}

func TestWheelSpanClampRefires(t *testing.T) {
	// A wake beyond the two-level horizon is clamped to the last
	// reachable tick: it must fire there (so the owner can re-file it),
	// not alias into a slot of the current epoch.
	w := &timingWheel{}
	w.advance(1000)
	st := wtSess()
	w.schedule(st, w.cur+10*wheelSpanTicks)
	max := (w.cur &^ int64(wheelMask)) + wheelSpanTicks - 1
	if st.wtick != max {
		t.Fatalf("clamped to tick %d, want span edge %d", st.wtick, max)
	}
	w.advance(max - 1)
	if st.wslot == wheelImminent {
		t.Fatal("fired before the span edge")
	}
	w.advance(max)
	if st.wslot != wheelImminent {
		t.Fatal("clamped timer never fired at the span edge")
	}
}

func TestWheelUnlinkEverywhere(t *testing.T) {
	w := &timingWheel{}
	a, b, c := wtSess(), wtSess(), wtSess()
	// Same level-0 slot: exercises middle-of-list unlink.
	w.schedule(a, 5)
	w.schedule(b, 5)
	w.schedule(c, 5)
	w.unlink(b)
	if w.n != 2 || b.wslot != wheelNone {
		t.Fatalf("after unlink: n=%d slot=%d", w.n, b.wslot)
	}
	w.unlink(b) // idempotent
	if w.n != 2 {
		t.Fatalf("double unlink corrupted count: n=%d", w.n)
	}
	w.advance(5)
	if got := len(collectImminent(w)); got != 2 {
		t.Fatalf("%d sessions fired, want 2 (b was cancelled)", got)
	}
	// Unlink from level 1 and from the imminent list.
	d := wtSess()
	w.schedule(d, w.cur+1000)
	w.unlink(d)
	if w.n != 0 || d.wslot != wheelNone {
		t.Fatalf("level-1 unlink: n=%d slot=%d", w.n, d.wslot)
	}
	w.unlink(a)
	if a.wslot != wheelNone || len(collectImminent(w)) != 1 {
		t.Fatal("imminent unlink failed")
	}
}

func TestWheelEmptyJumpAndGiantAdvance(t *testing.T) {
	w := &timingWheel{}
	w.advance(1 << 40) // empty: O(1) jump, must not iterate 2^40 ticks
	if w.cur != 1<<40 {
		t.Fatalf("cur=%d", w.cur)
	}
	// Populate both levels, then advance beyond the whole span at once.
	ss := make([]*session, 6)
	for i := range ss {
		ss[i] = wtSess()
		w.schedule(ss[i], w.cur+1+int64(i)*2000)
	}
	w.advance(w.cur + wheelSpanTicks + 5)
	for i, st := range ss {
		if st.wslot != wheelImminent {
			t.Fatalf("session %d (tick %d) not fired by a whole-span advance", i, st.wtick)
		}
	}
	if w.n != 0 {
		t.Fatalf("n=%d after firing everything", w.n)
	}
}

func TestWheelPlacePastGoesImminent(t *testing.T) {
	w := &timingWheel{}
	w.advance(100)
	st := wtSess()
	w.place(st, wheelTickStart(50)) // already past
	if st.wslot != wheelImminent {
		t.Fatalf("past wake filed in slot %d, want imminent", st.wslot)
	}
}

func TestWheelNextWake(t *testing.T) {
	w := &timingWheel{}
	if !math.IsInf(w.nextWake(), 1) {
		t.Fatal("empty wheel must report +Inf")
	}
	w.advance(10)
	st := wtSess()
	w.schedule(st, 17)
	if got, want := w.nextWake(), wheelTickStart(17); got != want {
		t.Fatalf("nextWake=%v want %v", got, want)
	}
	w.unlink(st)
	w.schedule(st, w.cur+10*wheelScanSlots)
	if !math.IsInf(w.nextWake(), 1) {
		t.Fatal("beyond the scan horizon must report +Inf (sweep covers it)")
	}
}

// discardBatch is a BatchConn that swallows writes: pacing tests drive
// shards synchronously and need no real peer.
type discardBatch struct{}

func (discardBatch) ReadBatch(ms []Message) (int, error)    { return 0, nil }
func (discardBatch) TryReadBatch(ms []Message) (int, error) { return 0, nil }
func (discardBatch) WriteBatch(ms []Message) (int, error)   { return len(ms), nil }
func (discardBatch) SetReadDeadline(time.Time) error        { return nil }
func (discardBatch) Kind() BatchKind                        { return BatchGeneric }

// scanPump is the pump the wheel replaced: it walks every session of the
// shard on every wakeup, O(sessions). It is the reference the wheel pump
// is differentially tested and measured against; it ignores the shard's
// wheel (sessions stay filed there, never fired) and drives the same
// per-session service — expiry check, bounded catch-up burst, batch
// build — so the two differ only in how the due set is found.
func scanPump(sh *shard, now float64) (sent int, next float64) {
	next = math.Inf(1)
	k := 0
	for _, st := range sh.sessions {
		if sh.expired(st, now) {
			sh.removeSession(st)
			continue
		}
		if st.flow.NextSend <= now {
			k = sh.buildDue(st, now, k)
		}
		if st.flow.NextSend < next {
			next = st.flow.NextSend
		}
	}
	sh.flush(k)
	return k, next
}

// pumpFn is a shard pump: (*shard).pump, or the scanPump reference.
type pumpFn func(sh *shard, now float64) (sent int, next float64)

// pumps are the legs of every pump A/B, reference first.
var pumps = []struct {
	name string
	pump pumpFn
}{
	{"scan", scanPump},
	{"wheel", (*shard).pump},
}

// pacerHarness is a single-shard MultiServer driven synchronously
// (Serve never runs): handle and pump are called directly with
// explicit instants, writes go to a discard sink.
func pacerHarness(t testing.TB, cfg MultiConfig) *shard {
	t.Helper()
	conn := listenUDPTB(t)
	t.Cleanup(func() { conn.Close() })
	if cfg.QA.C == 0 {
		cfg.QA = core.Params{C: 15_000, Kmax: 2, MaxLayers: 2, StartupSec: 0.1}
	}
	if cfg.RAP.PacketSize == 0 {
		cfg.RAP = transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 40_000}
	}
	srv, err := NewMultiServerConns([]*net.UDPConn{conn}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := srv.shards[0]
	sh.writer = discardBatch{}
	return sh
}

func synthAddr(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), uint16(20000+i%1000))
}

// TestPacerDifferentialRandomized drives a shard pumped by the scanPump
// reference and one pumped by the wheel through the same randomized
// workload — joins,
// re-requests, full and partial acks, silence, and pumps at irregular
// instants including multi-second and whole-span jumps — and asserts
// they make bit-identical decisions throughout: same packets written
// per pump, same live session set, and per-session identical send
// counts and exact next-send instants.
func TestPacerDifferentialRandomized(t *testing.T) {
	cfg := MultiConfig{
		IdleTimeout: 700 * time.Millisecond,
		MaxStream:   time.Hour,
	}
	scan := pacerHarness(t, cfg)
	wheel := pacerHarness(t, cfg)
	both := [2]*shard{scan, wheel}
	for _, sh := range both {
		// A batch that is never the binding constraint: due-set order
		// must not matter.
		sh.msgs = make([]Message, 1024)
		for i := range sh.msgs {
			sh.msgs[i].Buf = make([]byte, sh.srv.cfg.RAP.PacketSize)
		}
	}

	rng := rand.New(rand.NewSource(7))
	now := 0.0
	const maxClients = 48
	handleBoth := func(m inMsg) {
		for _, sh := range both {
			sh.handle(m, now)
		}
	}
	ackSome := func(st *session, frac float64) {
		// Ack decisions are generated once (from the scan shard's
		// state) and applied to both, so the servers see identical
		// input even while we verify their states match.
		for seq := st.flow.Tr.Counters().Acked + st.flow.Tr.Counters().Lost; seq < st.flow.Tr.Counters().Sent; seq++ {
			if frac < 1 && rng.Float64() >= frac {
				continue
			}
			m := inMsg{addr: st.addr, kind: KindAck, ack: Ack{AckSeq: seq, NackLayer: NoNack}}
			if rng.Intn(20) == 0 {
				m.ack.NackLayer = 0
				m.ack.NackOff = int64(rng.Intn(40)) * 512
				m.ack.NackLen = 512
			}
			handleBoth(m)
		}
	}
	compare := func(step int) {
		t.Helper()
		if len(scan.sessions) != len(wheel.sessions) {
			t.Fatalf("step %d: %d vs %d live sessions", step, len(scan.sessions), len(wheel.sessions))
		}
		for addr, a := range scan.sessions {
			b := wheel.sessions[addr]
			if b == nil {
				t.Fatalf("step %d: %v live under scan, expired under wheel", step, addr)
			}
			if a.flow.Tr.Counters().Sent != b.flow.Tr.Counters().Sent {
				t.Fatalf("step %d %v: sent %d vs %d", step, addr, a.flow.Tr.Counters().Sent, b.flow.Tr.Counters().Sent)
			}
			if a.flow.NextSend != b.flow.NextSend {
				t.Fatalf("step %d %v: nextSend %.17g vs %.17g", step, addr, a.flow.NextSend, b.flow.NextSend)
			}
			if a.deadline != b.deadline {
				t.Fatalf("step %d %v: deadline %.17g vs %.17g", step, addr, a.deadline, b.deadline)
			}
		}
	}

	live := []netip.AddrPort{}
	nextID := 0
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 3 && len(live) < maxClients: // join
			addr := synthAddr(nextID)
			nextID++
			live = append(live, addr)
			handleBoth(inMsg{addr: addr, kind: KindReq, durMs: uint32(100 + rng.Intn(2500))})
		case op == 3 && len(live) > 0: // re-request (deadline may move either way)
			handleBoth(inMsg{addr: live[rng.Intn(len(live))], kind: KindReq, durMs: uint32(50 + rng.Intn(2500))})
		case op < 7 && len(live) > 0: // ack a random client, fully or partially
			if st := scan.sessions[live[rng.Intn(len(live))]]; st != nil {
				frac := 1.0
				if rng.Intn(3) == 0 {
					frac = rng.Float64()
				}
				ackSome(st, frac)
			}
		}
		// Advance time: usually sub-sweep steps, sometimes a coalesced
		// sleep, rarely a stall past idle expiry or a whole-span jump.
		switch r := rng.Intn(100); {
		case r < 80:
			now += 0.0001 + rng.Float64()*0.005
		case r < 95:
			now += rng.Float64() * 0.08
		case r < 99:
			now += 1 + rng.Float64() // expires idle clients
		default:
			now += 70 // beyond the wheel's ~69 s two-level span
		}
		ks, _ := scanPump(scan, now)
		kw, _ := wheel.pump(now)
		if ks != kw {
			t.Fatalf("step %d (now=%.6f): scan wrote %d packets, wheel wrote %d", step, now, ks, kw)
		}
		compare(step)
		// Forget expired clients so the live list doesn't grow stale.
		if step%50 == 0 {
			kept := live[:0]
			for _, a := range live {
				if scan.sessions[a] != nil {
					kept = append(kept, a)
				}
			}
			live = kept
		}
	}
	if scan.srv.expired.Load() == 0 || scan.srv.sent.Load() == 0 {
		t.Fatalf("workload too tame: expired=%d sent=%d", scan.srv.expired.Load(), scan.srv.sent.Load())
	}
}

// TestPumpDueSendsWholeTick pins the shard loop's send stage: one pump
// writes at most one batch, so a wake that finds more than a batch due
// (every tick-driven wake under load) must pump again until nothing is
// due — but only up to readBurst packets, after which it reports the
// backlog (next <= now) instead of finishing it, so the caller reads
// the socket in between.
func TestPumpDueSendsWholeTick(t *testing.T) {
	join := func(sh *shard, n int) {
		for i := 0; i < n; i++ {
			sh.handle(inMsg{addr: synthAddr(i), kind: KindReq, durMs: 60_000}, 0)
		}
	}
	sh := pacerHarness(t, MultiConfig{})
	join(sh, 50) // every new session's first packet is due at once
	if k, _ := sh.pump(0); k != len(sh.msgs) {
		t.Fatalf("one pump wrote %d packets, want exactly one batch of %d", k, len(sh.msgs))
	}
	sh = pacerHarness(t, MultiConfig{})
	join(sh, 50)
	if sent, next := sh.pumpDue(0); sent != 50 || next <= 0 {
		t.Fatalf("pumpDue wrote %d of 50 due packets, next=%v (want all, next > now)", sent, next)
	}

	sh = pacerHarness(t, MultiConfig{})
	join(sh, 300)
	sent, next := sh.pumpDue(0)
	if sent < readBurst || sent >= readBurst+len(sh.msgs) {
		t.Fatalf("pumpDue wrote %d packets against a 300-packet backlog, want the bound [%d, %d)", sent, readBurst, readBurst+len(sh.msgs))
	}
	if next > 0 {
		t.Fatalf("pumpDue stopped at its bound but reports next=%v > now: the loop would sleep on a backlog", next)
	}
	for rounds := 0; next <= 0; rounds++ {
		if rounds > 10 {
			t.Fatal("backlog never cleared")
		}
		var k int
		k, next = sh.pumpDue(0)
		sent += k
	}
	if sent != 300 {
		t.Fatalf("backlog cleared after %d packets, want 300", sent)
	}
}

// TestPumpDueReturnsWhenOnlyTheClockHelps: a session exactly at its idle
// cutoff is awake (cutoff <= now) but not expired (now-lastRecv is not
// yet > idle) and has nothing to send; pump reports next <= now having
// written nothing, and pumpDue must hand that back rather than spin on
// a frozen clock.
func TestPumpDueReturnsWhenOnlyTheClockHelps(t *testing.T) {
	sh := pacerHarness(t, MultiConfig{IdleTimeout: 700 * time.Millisecond})
	sh.handle(inMsg{addr: synthAddr(1), kind: KindReq, durMs: 60_000}, 0)
	st := sh.sessions[synthAddr(1)]
	sh.pumpDue(0)
	st.flow.NextSend = 1e9 // nothing to send; only the idle cutoff wakes it
	sh.wheel.unlink(st)
	sh.wheel.place(st, sh.wakeAt(st))
	done := make(chan struct{})
	go func() {
		defer close(done)
		if sent, next := sh.pumpDue(0.7); sent != 0 || next > 0.7 {
			t.Errorf("pumpDue = %d, %v; the premise (awake, not expired, nothing due) no longer holds", sent, next)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pumpDue spins when a pump makes no progress")
	}
	if len(sh.sessions) != 1 {
		t.Fatal("session expired at exactly its cutoff: premise broken")
	}
}

// TestShardStallRecoveryBurst pins the catch-up fix: a shard that
// stalls (descheduled goroutine, coalesced timer) and then resumes
// with wakeups sparser than the inter-packet gap must still deliver
// the session's target rate, repaying lateness with bounded bursts
// instead of sagging to one packet per wakeup forever.
func TestShardStallRecoveryBurst(t *testing.T) {
	sh := pacerHarness(t, MultiConfig{IdleTimeout: time.Hour})
	addr := synthAddr(1)
	now := 0.0
	sh.handle(inMsg{addr: addr, kind: KindReq, durMs: 3_600_000}, now)
	st := sh.sessions[addr]
	ackAll := func() {
		for seq := st.flow.Tr.Counters().Acked + st.flow.Tr.Counters().Lost; seq < st.flow.Tr.Counters().Sent; seq++ {
			sh.handle(inMsg{addr: addr, kind: KindAck, ack: Ack{AckSeq: seq, NackLayer: NoNack}}, now)
		}
	}
	// Warm up at tight wakeups until RAP sits at MaxRate.
	for i := 0; i < 400; i++ {
		now += 0.005
		sh.pump(now)
		ackAll()
	}
	// Stall for a full second, then resume with 20 ms wakeups — sparser
	// than the ~12.8 ms gap at MaxRate (40 kB/s / 512 B = 78 pkt/s), so
	// without catch-up the ceiling would be 50 pkt/s.
	now += 1.0
	for i := 0; i < 50; i++ { // settle after the stall
		now += 0.02
		sh.pump(now)
		ackAll()
	}
	sentBefore := st.flow.Tr.Counters().Sent
	start := now
	for now-start < 2.0 {
		now += 0.02
		sh.pump(now)
		ackAll()
	}
	rate := float64(st.flow.Tr.Counters().Sent-sentBefore) / (now - start)
	const target = 40_000.0 / 512.0
	if rate < 0.85*target {
		t.Fatalf("post-stall rate %.1f pkt/s at 20 ms wakeups, want ≈%.1f (one-per-wakeup ceiling would be 50)", rate, target)
	}
	if rate > 1.15*target {
		t.Fatalf("post-stall rate %.1f pkt/s overshoots the %.1f target: catch-up burst unbounded?", rate, target)
	}
}

// addIdle registers n far-future sessions on the shard: minimal bare
// structs (the pumps read only the timing fields for never-due
// sessions), so a 100k population is cheap to build.
func addIdle(sh *shard, n int, now float64) {
	for i := 0; i < n; i++ {
		st := &session{
			addr:     synthAddr(100_000 + i),
			flow:     flow.Driver{NextSend: 1e9},
			deadline: 1e9,
			lastRecv: now,
			wslot:    wheelNone,
		}
		sh.sessions[st.addr] = st
		sh.wheel.place(st, sh.wakeAt(st))
	}
}

// scanVisits and wheelVisits count what the matching pump examines on
// a wakeup at now: every session of the shard for the scan; for the
// wheel, the slots its advance crosses, the entries it cascades and the
// sessions left on the imminent list, which is what pump then walks.
// wheelVisits advances the wheel itself; pump's own advance to the same
// tick is then a no-op, so counting changes nothing pump does.
func scanVisits(sh *shard, now float64) int64 { return int64(len(sh.sessions)) }

func wheelVisits(sh *shard, now float64) int64 {
	w := &sh.wheel
	from, cascades := w.cur, w.cascades
	w.advance(wheelTick(now))
	n := w.cur - from + int64(w.cascades-cascades)
	for st := w.imminent; st != nil; st = st.wnext {
		n++
	}
	return n
}

// pumpVisits returns the mean visits per shard wakeup with 8 actively
// paced sessions and nIdle never-due ones.
func pumpVisits(t testing.TB, pump pumpFn, visits func(*shard, float64) int64, nIdle int) float64 {
	sh := pacerHarness(t, MultiConfig{IdleTimeout: time.Hour, MaxStream: 24 * time.Hour})
	now := 0.0
	const nDue = 8
	addrs := make([]netip.AddrPort, nDue)
	for i := range addrs {
		addrs[i] = synthAddr(i)
		sh.handle(inMsg{addr: addrs[i], kind: KindReq, durMs: 3_600_000}, now)
	}
	ackAll := func() {
		for _, a := range addrs {
			st := sh.sessions[a]
			for seq := st.flow.Tr.Counters().Acked + st.flow.Tr.Counters().Lost; seq < st.flow.Tr.Counters().Sent; seq++ {
				sh.handle(inMsg{addr: a, kind: KindAck, ack: Ack{AckSeq: seq, NackLayer: NoNack}}, now)
			}
		}
	}
	for i := 0; i < 200; i++ { // warm the due set to steady state
		now += 0.005
		pump(sh, now)
		ackAll()
	}
	addIdle(sh, nIdle, now)
	const iters = 40
	var total, sent int64
	for i := 0; i < iters; i++ {
		now += 0.005
		total += visits(sh, now)
		k, _ := pump(sh, now)
		sent += int64(k)
		ackAll()
	}
	if sent == 0 {
		t.Fatal("no packet sent in the measured wakeups: the due set is not live")
	}
	return float64(total) / iters
}

// TestWheelPumpCostFlatInIdlePopulation is the O(due) acceptance
// check, counted, not timed: growing the idle population 1k -> 100k must
// not grow what the wheel pump visits per wakeup, while the scan
// reference grows with the population (sanity that the workload
// actually distinguishes the two).
func TestWheelPumpCostFlatInIdlePopulation(t *testing.T) {
	w1 := pumpVisits(t, (*shard).pump, wheelVisits, 1_000)
	w100 := pumpVisits(t, (*shard).pump, wheelVisits, 100_000)
	s1 := pumpVisits(t, scanPump, scanVisits, 1_000)
	s100 := pumpVisits(t, scanPump, scanVisits, 100_000)
	t.Logf("visits per wakeup: wheel 1k=%.1f 100k=%.1f  scan 1k=%.0f 100k=%.0f", w1, w100, s1, s100)
	if w100 > 1.5*w1 {
		t.Errorf("wheel visits per wakeup grew %.1f -> %.1f from 1k to 100k idle sessions, want flat", w1, w100)
	}
	if s100 < 50*s1 {
		t.Errorf("scan visits per wakeup grew only %.0f -> %.0f across 100× population: workload does not exercise the scan floor", s1, s100)
	}
	if w100 >= s100/100 {
		t.Errorf("wheel (%.1f visits) not two orders cheaper than scan (%.0f) at 100k idle", w100, s100)
	}
}

func BenchmarkPumpIdleScaling(b *testing.B) {
	for _, leg := range pumps {
		pump := leg.pump
		for _, nIdle := range []int{1_000, 10_000, 100_000} {
			b.Run(fmt.Sprintf("%s/idle%d", leg.name, nIdle), func(b *testing.B) {
				sh := pacerHarness(b, MultiConfig{IdleTimeout: time.Hour, MaxStream: 24 * time.Hour})
				now := 0.0
				addr := synthAddr(1)
				sh.handle(inMsg{addr: addr, kind: KindReq, durMs: 3_600_000}, now)
				st := sh.sessions[addr]
				for i := 0; i < 200; i++ {
					now += 0.005
					pump(sh, now)
					for seq := st.flow.Tr.Counters().Acked + st.flow.Tr.Counters().Lost; seq < st.flow.Tr.Counters().Sent; seq++ {
						sh.handle(inMsg{addr: addr, kind: KindAck, ack: Ack{AckSeq: seq, NackLayer: NoNack}}, now)
					}
				}
				addIdle(sh, nIdle, now)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now += 0.005
					pump(sh, now)
				}
			})
		}
	}
}
