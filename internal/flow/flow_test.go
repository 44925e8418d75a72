package flow

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"qav/internal/core"
	"qav/internal/transport"
)

// Everything here runs on virtual time with no socket and no engine: the
// driver, a transport.RAP and a core.Controller are pure functions of
// the (now, event) sequence the test feeds them.

const pkt = 500

func newDriver(t testing.TB, rcfg transport.RAPConfig, qa core.Params) *Driver {
	t.Helper()
	if rcfg.PacketSize == 0 {
		rcfg.PacketSize = pkt
	}
	if qa.C == 0 {
		qa = core.Params{C: 10_000, Kmax: 2, MaxLayers: 3, StartupSec: 0.1}
	}
	ctrl, err := core.NewController(qa)
	if err != nil {
		t.Fatal(err)
	}
	d := New(transport.NewRAP(rcfg), ctrl, 0)
	return &d
}

// sendN takes n send slots, each exactly at NextSend, and returns the
// sequences.
func sendN(d *Driver, n int) []int64 {
	seqs := make([]int64, n)
	for i := range seqs {
		seqs[i], _ = d.Send(d.NextSend, false)
	}
	return seqs
}

func credited(d *Driver) (pkts int64) {
	for _, b := range d.DeliveredByLayer {
		pkts += b / int64(d.PacketSize)
	}
	return pkts
}

func TestDuplicateAckCreditsOnce(t *testing.T) {
	d := newDriver(t, transport.RAPConfig{}, core.Params{})
	seqs := sendN(d, 4)
	now := d.NextSend + 0.05
	if !d.Ack(now, seqs[1]) {
		t.Fatal("first ACK not credited")
	}
	buf := d.Ctrl.TotalBuf()
	for i := 0; i < 3; i++ {
		if d.Ack(now+float64(i)*0.01, seqs[1]) {
			t.Fatalf("duplicate ACK %d credited", i)
		}
	}
	if got := d.Ctrl.TotalBuf(); got != buf || credited(d) != 1 || d.Tr.Counters().Acked != 1 || d.Ctrl.Stats().Backoffs != 0 {
		t.Fatalf("after 3 duplicates: buffer %v -> %v, credited %d, acked %d, backoffs %d",
			buf, got, credited(d), d.Tr.Counters().Acked, d.Ctrl.Stats().Backoffs)
	}
}

// A sequence the transport declared lost is gone from the window, tag
// and all, whether or not the loss produced a Backoff: a loss cluster
// inside the previous backoff's fence returns none (the seq -> layer map
// this replaced never heard of those and kept them for good). A late ACK
// for either kind credits nothing.
func TestAckForLostSeqCreditsNothing(t *testing.T) {
	d := newDriver(t, transport.RAPConfig{InitialRTT: 0.1}, core.Params{})
	seqs := sendN(d, 12)
	now := d.NextSend
	// ACK 3: sequences 0 is beyond the reorder gap -> lost, backoff, fence
	// until now + SRTT.
	if ok := d.Ack(now, seqs[3]); !ok || d.Ctrl.Stats().Backoffs != 1 {
		t.Fatalf("ACK 3: credited %v, backoffs %d; want a backoff (seq 0 lost) and a credit", ok, d.Ctrl.Stats().Backoffs)
	}
	// ACK 9 an instant later: 1, 2, 4, 5, 6 are lost inside the fence.
	if ok := d.Ack(now+1e-3, seqs[9]); !ok || d.Ctrl.Stats().Backoffs != 1 {
		t.Fatalf("ACK 9 inside the fence: credited %v, backoffs %d; want no new backoff and a credit", ok, d.Ctrl.Stats().Backoffs)
	}
	c := d.Tr.Counters()
	if c.Lost != 6 || c.Backoffs != 1 || d.Tr.Outstanding() != 4 {
		t.Fatalf("lost %d, backoffs %d, outstanding %d; want 6, 1, 4", c.Lost, c.Backoffs, d.Tr.Outstanding())
	}
	buf, rate := d.Ctrl.TotalBuf(), d.Tr.Rate()
	for _, seq := range []int64{0 /* lost outside the fence */, 1, 2, 4, 5, 6 /* inside */} {
		if d.Ack(now+2e-3, seq) {
			t.Fatalf("late ACK for lost seq %d credited", seq)
		}
	}
	if d.Ctrl.TotalBuf() != buf || d.Tr.Rate() != rate || credited(d) != 2 || d.Tr.Counters().Acked != 2 || d.Ctrl.Stats().Backoffs != 1 {
		t.Fatalf("late ACKs moved state: buffer %v -> %v, rate %v -> %v, credited %d, acked %d, backoffs %d",
			buf, d.Ctrl.TotalBuf(), rate, d.Tr.Rate(), credited(d), d.Tr.Counters().Acked, d.Ctrl.Stats().Backoffs)
	}
}

func TestAckForNeverSentSeqChangesNothing(t *testing.T) {
	d := newDriver(t, transport.RAPConfig{}, core.Params{})
	seqs := sendN(d, 6)
	now := d.NextSend
	buf, rate, out := d.Ctrl.TotalBuf(), d.Tr.Rate(), d.Tr.Outstanding()
	for _, seq := range []int64{int64(len(seqs)), 1 << 40, -1, -1 << 40} {
		if d.Ack(now, seq) {
			t.Fatalf("ACK for never-sent seq %d credited", seq)
		}
	}
	c := d.Tr.Counters()
	if d.Ctrl.TotalBuf() != buf || d.Tr.Rate() != rate || d.Tr.Outstanding() != out || c.Lost != 0 || c.Acked != 0 || d.Ctrl.Stats().Backoffs != 0 {
		t.Fatalf("state moved: buffer %v -> %v, rate %v -> %v, outstanding %d -> %d, lost %d, acked %d, backoffs %d",
			buf, d.Ctrl.TotalBuf(), rate, d.Tr.Rate(), out, d.Tr.Outstanding(), c.Lost, c.Acked, d.Ctrl.Stats().Backoffs)
	}
	// The honest ACKs that follow are all taken.
	for _, seq := range seqs {
		if !d.Ack(now, seq) {
			t.Fatalf("honest ACK %d not credited", seq)
		}
	}
}

// One ACK can both reveal a loss and deliver a packet. The controller
// must run its drop rule on the buffers as they were: OnBackoff before
// that ACK's OnDelivered. The drop event records the total buffering it
// saw, which tells the two orders apart.
func TestBackoffReachesControllerBeforeDelivery(t *testing.T) {
	// A 10 ms initial RTT makes the slope estimate huge, so the second
	// layer is cheap to add; the first RTT sample below is 10 s, which
	// collapses the slope and makes the backoff unsurvivable on two layers.
	d := newDriver(t, transport.RAPConfig{InitialRate: 30_000, MaxRate: 30_000, InitialRTT: 0.01},
		core.Params{C: 10_000, Kmax: 1, MaxLayers: 2, StartupSec: 0.1})
	d.Ctrl.KeepEvents()
	d.Ctrl.OnDelivered(0, 0, 50_000)
	var x int64 = -1 // a layer-0 sequence sent with two layers active
	for i := 0; i < 200 && x < 0; i++ {
		seq, layer := d.Send(d.NextSend, false)
		if d.Ctrl.ActiveLayers() == 2 && layer == 0 && seq >= 3 {
			x = seq
		}
	}
	if x < 0 {
		t.Fatalf("no layer-0 packet with two layers active (layers %d)", d.Ctrl.ActiveLayers())
	}
	before, events := d.Ctrl.TotalBuf(), len(d.Ctrl.Events)
	if ok := d.Ack(d.NextSend+10, x); !ok || d.Ctrl.Stats().Backoffs != 1 {
		t.Fatalf("ACK %d: credited %v, backoffs %d; want a credit and a backoff", x, ok, d.Ctrl.Stats().Backoffs)
	}
	ev := d.Ctrl.Events[events:]
	if len(ev) != 2 || ev[0].Kind != core.EvBackoff || ev[1].Kind != core.EvDropLayer {
		t.Fatalf("controller events %+v; want a backoff then a drop", ev)
	}
	if ev[1].BufTotal != before {
		t.Fatalf("drop rule saw %v B buffered, want %v (the buffers before this ACK's delivery)", ev[1].BufTotal, before)
	}
	if got, want := d.Ctrl.TotalBuf(), before-ev[1].BufDrop+pkt; got != want {
		t.Fatalf("buffer after the ACK %v, want %v (dropped layer out, one packet in)", got, want)
	}
}

// A repair slot (§1.3) is taken only while a retransmission is pending
// and the rate covers consumption. It is congestion controlled — it
// consumes a sequence and a pacing gap like any packet — but its bytes
// sit behind the playout point, so its ACK credits nothing.
func TestRepairSlotConsumesSeqAndPaceNeverCredited(t *testing.T) {
	d := newDriver(t, transport.RAPConfig{InitialRate: 30_000, MaxRate: 30_000}, core.Params{C: 10_000, Kmax: 2, MaxLayers: 3, StartupSec: 0.1})

	// Not playing yet, consumption 0: a pending repair is served at once.
	seq0, layer := d.Send(0, true)
	if layer != Repair || seq0 != 0 {
		t.Fatalf("first slot with a repair pending: seq %d layer %d, want seq 0, Repair", seq0, layer)
	}
	if d.NextSend != d.Tr.IPG() {
		t.Fatalf("repair slot left NextSend at %v, want one IPG %v", d.NextSend, d.Tr.IPG())
	}
	// No repair pending: new data.
	seq1, layer := d.Send(d.NextSend, false)
	if layer != 0 || seq1 != 1 {
		t.Fatalf("data slot: seq %d layer %d, want seq 1 layer 0", seq1, layer)
	}
	if d.SentByLayer[0] != pkt {
		t.Fatalf("SentByLayer[0] = %d after one data packet and one repair, want %d", d.SentByLayer[0], pkt)
	}
	now := d.NextSend
	if d.Ack(now, seq0) {
		t.Fatal("repair ACK credited")
	}
	if !d.Ack(now, seq1) {
		t.Fatal("data ACK not credited")
	}
	if c := d.Tr.Counters(); c.Sent != 2 || c.Acked != 2 || credited(d) != 1 {
		t.Fatalf("sent %d, acked %d, credited %d; want 2, 2, 1", c.Sent, c.Acked, credited(d))
	}

	// Playing three layers' worth at a rate below their consumption:
	// the slot goes to new data even with a repair pending.
	d.Ctrl.OnDelivered(now, 0, 1_000_000)
	for i := 0; i < 2000 && d.Ctrl.ActiveLayers() < 3; i++ {
		seq, _ := d.Send(d.NextSend, false)
		d.Ack(d.NextSend, seq)
	}
	if d.Ctrl.ConsumptionRate() != 30_000 {
		t.Fatalf("consumption %v, want three layers playing", d.Ctrl.ConsumptionRate())
	}
	if _, layer := d.Send(d.NextSend, true); layer != Repair {
		t.Fatalf("rate %v == consumption %v with a repair pending: layer %d, want Repair", d.Tr.Rate(), d.Ctrl.ConsumptionRate(), layer)
	}
	seqs := sendN(d, 4)
	if d.Ack(d.NextSend, seqs[3]); d.Ctrl.Stats().Backoffs != 1 {
		t.Fatalf("%d backoffs, want 1", d.Ctrl.Stats().Backoffs)
	}
	if d.Ctrl.ActiveLayers() != 3 || d.Tr.Rate() >= d.Ctrl.ConsumptionRate() {
		t.Fatalf("after the backoff: %d layers, rate %v vs consumption %v", d.Ctrl.ActiveLayers(), d.Tr.Rate(), d.Ctrl.ConsumptionRate())
	}
	if _, layer := d.Send(d.NextSend, true); layer == Repair {
		t.Fatalf("repair slot taken at rate %v below consumption %v", d.Tr.Rate(), d.Ctrl.ConsumptionRate())
	}
}

func TestPacingDebtIsBounded(t *testing.T) {
	d := newDriver(t, transport.RAPConfig{InitialRate: 25_000, MaxRate: 25_000}, core.Params{})
	ipg := d.Tr.IPG()

	// On time (the simulator's case: the event fires exactly at
	// NextSend): the next slot is now + IPG, bit for bit.
	for i := 0; i < 100; i++ {
		now := d.NextSend
		d.Send(now, false)
		if d.NextSend != now+ipg {
			t.Fatalf("slot %d at its scheduled instant %v: NextSend %v, want now+IPG %v", i, now, d.NextSend, now+ipg)
		}
	}

	// Slightly late: the pace advances from the scheduled instant, so
	// the lateness is repaid.
	sched := d.NextSend
	d.Send(sched+ipg/4, false)
	if d.NextSend != sched+ipg {
		t.Fatalf("late by a quarter gap: NextSend %v, want scheduled+IPG %v", d.NextSend, sched+ipg)
	}

	// A 10 s stall: the debt is capped at SendBurst gaps, so the slot
	// after the stall is scheduled SendBurst-1 gaps in the past and the
	// flow is caught up after SendBurst more packets (the server sends at
	// most SendBurst of them in one pump).
	now := d.NextSend + 10
	d.Send(now, false)
	if want := now - SendBurst*ipg + ipg; d.NextSend != want {
		t.Fatalf("first slot after a stall: NextSend %v, want now-%d*IPG+IPG = %v", d.NextSend, SendBurst, want)
	}
	burst := 1
	for ; d.NextSend <= now; burst++ {
		if burst > SendBurst {
			t.Fatalf("still due after %d back-to-back packets", burst)
		}
		d.Send(now, false)
	}
	if burst < SendBurst || d.NextSend > now+ipg {
		t.Fatalf("catch-up burst %d packets, NextSend %v (now %v, IPG %v)", burst, d.NextSend, now, ipg)
	}
}

// StepIfDue is the server's cadence: nothing until a StepInterval has
// passed since the last step, whichever way that step was taken.
func TestStepIfDue(t *testing.T) {
	d := newDriver(t, transport.RAPConfig{InitialRTT: 0.1}, core.Params{})
	rate := d.Tr.Rate()
	d.StepIfDue(0.05)
	if d.Tr.Rate() != rate {
		t.Fatal("stepped before a StepInterval had passed")
	}
	d.StepIfDue(0.1)
	if d.Tr.Rate() <= rate {
		t.Fatal("did not step once a StepInterval had passed")
	}
	rate = d.Tr.Rate()
	d.Step(0.15) // unconditional
	if d.Tr.Rate() <= rate {
		t.Fatal("Step did not step")
	}
	rate = d.Tr.Rate()
	d.StepIfDue(0.2)
	if d.Tr.Rate() != rate {
		t.Fatal("StepIfDue ignored the Step at 0.15")
	}
}

// Cross traffic has no controller: it sends layer 0, tags and credits
// nothing, and still paces and backs off.
func TestCrossTraffic(t *testing.T) {
	d := New(transport.NewRAP(transport.RAPConfig{PacketSize: pkt}), nil, 1.5)
	if d.NextSend != 1.5 || d.SentByLayer != nil {
		t.Fatalf("NextSend %v, SentByLayer %v", d.NextSend, d.SentByLayer)
	}
	seqs := sendN(&d, 5)
	if ok := d.Ack(d.NextSend, seqs[4]); ok || d.Tr.Counters().Backoffs != 1 {
		t.Fatalf("ACK 4 of 0..4: credited %v, backoffs %d; want a backoff and no credit", ok, d.Tr.Counters().Backoffs)
	}
}

// TestDriverMemoryBoundedUnderLoss: a stream where half the packets are
// never acknowledged must hold the attribution footprint fixed — the
// tags leave the window with the sequences the transport declares lost.
// (A seq -> layer map beside the window leaked every such entry; the
// fixed ring that replaced it cost 12 kB a session.)
func TestDriverMemoryBoundedUnderLoss(t *testing.T) {
	d := newDriver(t, transport.RAPConfig{}, core.Params{C: 10_000, Kmax: 2, MaxLayers: 3, StartupSec: 0.1, MaxEvents: 1024})
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1_000_000; i++ {
		now := d.NextSend
		d.StepIfDue(now)
		seq, _ := d.Send(now, false)
		if a := seq - 4; a >= 0 && a%2 == 0 {
			d.Ack(now, a)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if out := d.Tr.Outstanding(); out > 16 {
		t.Fatalf("%d sequences outstanding (and attributed) with ACKs trailing by four", out)
	}
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 1<<20 {
		t.Fatalf("heap grew %d bytes over 1M half-lost packets, want ~0", growth)
	}
}

// runCadence drives a cross-traffic driver over RAP for dur seconds of
// virtual time on a queue-free path: packet seq is ACKed delay(seq)
// after it is sent (delays keep ACKs in order), and packets sent at or
// after dieAt are never ACKed. With timer, Step runs every StepInterval
// from the start, as a simulator source steps; without, StepIfDue runs
// before each send, as a server session steps. It returns the rate at
// dur and how long after the first unACKed packet was sent a timeout
// declared it lost (0 if none did).
func runCadence(rcfg transport.RAPConfig, timer bool, dur float64, delay func(seq int64) float64, dieAt float64) (rate, detect float64) {
	d := New(transport.NewRAP(rcfg), nil, 0)
	type ack struct {
		at  float64
		seq int64
	}
	var acks []ack
	step, firstLost := 0.0, -1.0
	for {
		now, timeouts := d.NextSend, d.Tr.Counters().Timeouts
		switch {
		case len(acks) > 0 && acks[0].at <= now:
			now = acks[0].at
			d.Ack(now, acks[0].seq)
			acks = acks[1:]
		case timer && step < now:
			now = step
			d.Step(now)
			step = now + d.Tr.StepInterval()
		default:
			if now > dur {
				return d.Tr.Rate(), detect
			}
			if !timer {
				d.StepIfDue(now)
			}
			seq, _ := d.Send(now, false)
			if now < dieAt {
				acks = append(acks, ack{now + delay(seq), seq})
			} else if firstLost < 0 {
				firstLost = now
			}
		}
		if detect == 0 && firstLost >= 0 && d.Tr.Counters().Timeouts > timeouts {
			detect = now - firstLost
		}
	}
}

// The simulator steps RAP on a timer, once per SRTT; the server steps it
// at send time, once a StepInterval has passed. At IPG = 2·SRTT the two
// diverge: the server adds P/SRTT at most once per packet, and notices a
// timeout only at its next send. This measures both; DESIGN.md "Flow
// driver" quotes the numbers.
func TestStepCadenceDivergence(t *testing.T) {
	const rtt = 0.1
	start := transport.RAPConfig{PacketSize: pkt, InitialRTT: rtt, InitialRate: pkt / (2 * rtt)}
	fixed := func(int64) float64 { return rtt }
	timerRate, _ := runCadence(start, true, 1, fixed, math.Inf(1))
	lazyRate, _ := runCadence(start, false, 1, fixed, math.Inf(1))
	t.Logf("rate 1 s after starting at IPG = 2·SRTT: timer Step %.0f B/s, StepIfDue %.0f B/s (%.2fx)", timerRate, lazyRate, timerRate/lazyRate)
	if !(lazyRate < timerRate) {
		t.Fatalf("StepIfDue reached %.0f B/s, timer Step %.0f B/s; want the lazy cadence slower", lazyRate, timerRate)
	}

	// Held at IPG = 2·SRTT by MaxRate, over a path whose RTT alternates
	// 60/140 ms so the RTO (SRTT + 4·RTTVAR) falls off both grids; the
	// path dies at 10 s.
	held := start
	held.MaxRate = start.InitialRate
	jitter := func(seq int64) float64 { return rtt + 0.04*float64(1-2*(seq&1)) }
	_, timerDetect := runCadence(held, true, 20, jitter, 10)
	_, lazyDetect := runCadence(held, false, 20, jitter, 10)
	t.Logf("timeout detected after the lost packet's send: timer Step %.0f ms, StepIfDue %.0f ms", 1e3*timerDetect, 1e3*lazyDetect)
	if timerDetect == 0 || !(lazyDetect > timerDetect) {
		t.Fatalf("timeout detected after %v s (timer) and %v s (StepIfDue); want both, the lazy cadence later", timerDetect, lazyDetect)
	}
}

// A record replays the driver's own controller bit for bit through
// every kind of call: data and repair slots, ticks between sends,
// backoffs, and ACKs that are fresh, duplicated, late for a lost
// sequence, or for a repair.
func TestReplayReproducesDriver(t *testing.T) {
	qa := core.Params{C: 10_000, Kmax: 2, MaxLayers: 4, StartupSec: 0.1}
	d := newDriver(t, transport.RAPConfig{InitialRate: 30_000, MaxRate: 60_000, InitialRTT: 0.05}, qa)
	d.Ctrl.KeepEvents()
	var rec []Input
	d.Record(&rec)
	// Two followers beside the record: one like the driver's controller,
	// one at another Kmax.
	same, other := qa, qa
	other.Kmax = 3
	followers := make([]*Replayer, 2)
	for i, p := range []core.Params{same, other} {
		c, err := core.NewController(p)
		if err != nil {
			t.Fatal(err)
		}
		c.KeepEvents()
		followers[i] = NewReplayer(c, pkt)
		d.Follow(followers[i].Feed)
	}
	rng := rand.New(rand.NewSource(1))
	type ack struct {
		at  float64
		seq int64
	}
	var acks []ack // in arrival order: each is sent 50 ms after its packet
	tick, step := 0.0, 0.0
	for d.NextSend < 60 {
		now := min(d.NextSend, tick, step)
		if len(acks) > 0 && acks[0].at <= now {
			d.Ack(acks[0].at, acks[0].seq)
			acks = acks[1:]
			continue
		}
		switch now {
		case tick:
			d.Tick(now)
			tick += 0.1
		case step:
			d.Step(now)
			step += d.Tr.StepInterval()
		default:
			seq, _ := d.Send(now, rng.Intn(10) == 0)
			loss := 2
			if now > 20 && now < 30 {
				loss = 15 // a congested stretch the buffers cannot ride out
			}
			switch r := rng.Intn(50); {
			case r < loss: // lost
			case r < 4: // duplicated
				acks = append(acks, ack{now + 0.05, seq}, ack{now + 0.05, seq})
			default:
				acks = append(acks, ack{now + 0.05, seq})
			}
		}
	}
	kinds := map[InputKind]int{}
	for _, in := range rec {
		kinds[in.Kind]++
	}
	st := d.Ctrl.Stats()
	if len(kinds) != 5 || st.Drops == 0 || st.Adds == 0 {
		t.Fatalf("inputs by kind %v, stats %+v: not every call was exercised", kinds, st)
	}
	for _, p := range []core.Params{same, other} {
		c, err := core.NewController(p)
		if err != nil {
			t.Fatal(err)
		}
		c.KeepEvents()
		Replay(c, rec, pkt)
		want := d.Ctrl
		if p.Kmax != qa.Kmax {
			want = followers[1].Ctrl
			if c.Stats() == st {
				t.Errorf("Kmax %d ends where Kmax %d does: the comparison is vacuous", p.Kmax, qa.Kmax)
			}
		}
		if !reflect.DeepEqual(c.Events, want.Events) || c.Stats() != want.Stats() || !reflect.DeepEqual(c.Buffers(), want.Buffers()) ||
			c.StallSec() != want.StallSec() || c.PlayedSec != want.PlayedSec || c.LayerSeconds != want.LayerSeconds {
			t.Fatalf("Kmax %d: replay: %d events %+v bufs %v; live: %d events %+v bufs %v",
				p.Kmax, len(c.Events), c.Stats(), c.Buffers(), len(want.Events), want.Stats(), want.Buffers())
		}
	}
	f := followers[0]
	if !reflect.DeepEqual(f.Ctrl.Events, d.Ctrl.Events) || !reflect.DeepEqual(f.SentByLayer, d.SentByLayer) || !reflect.DeepEqual(f.DeliveredByLayer, d.DeliveredByLayer) {
		t.Fatalf("follower: %+v sent %v delivered %v; driver: %+v sent %v delivered %v",
			f.Ctrl.Stats(), f.SentByLayer, f.DeliveredByLayer, st, d.SentByLayer, d.DeliveredByLayer)
	}
}

// A follower of a long run that loses one packet in twenty (in three on
// congested stretches), with ACKs out of order, credits every layer what
// the driver credits, and holds tags only for the packets in flight: a
// lost sequence leaves its window once an ACK passes it by the
// transport's reorder gap, so the window's ring stays small
// (seqwin.TestRingStaysSmallInSteadyState).
func TestReplayerRingBoundedUnderLoss(t *testing.T) {
	qa := core.Params{C: 2_000, Kmax: 2, MaxLayers: 4, StartupSec: 0.1, MaxEvents: 64}
	d := newDriver(t, transport.RAPConfig{InitialRate: 10_000, MaxRate: 20_000, InitialRTT: 0.05}, qa)
	c, err := core.NewController(qa)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplayer(c, pkt)
	d.Follow(r.Feed)
	rng := rand.New(rand.NewSource(2))
	type ack struct {
		at  float64
		seq int64
	}
	var acks []ack // unordered: each arrives 50-150 ms after its packet
	held := 0
	for sent := 0; sent < 200_000; {
		next := -1
		for i, a := range acks {
			if a.at <= d.NextSend && (next < 0 || a.at < acks[next].at) {
				next = i
			}
		}
		if next >= 0 {
			a := acks[next]
			acks = append(acks[:next], acks[next+1:]...)
			d.Ack(a.at, a.seq)
			continue
		}
		now := d.NextSend
		d.StepIfDue(now)
		d.Tick(now)
		seq, _ := d.Send(now, false)
		sent++
		loss := 20
		if sent%20_000 > 15_000 {
			loss = 3 // a congested stretch: the top layers go
		}
		if rng.Intn(loss) > 0 {
			acks = append(acks, ack{now + 0.05 + 0.1*rng.Float64(), seq})
		}
		held = max(held, r.win.Len())
	}
	t.Logf("at most %d tags held, %+v, %+v", held, d.Tr.Counters(), c.Stats())
	if held > 64 {
		t.Errorf("the follower held up to %d tags", held)
	}
	if !reflect.DeepEqual(r.SentByLayer, d.SentByLayer) || !reflect.DeepEqual(r.DeliveredByLayer, d.DeliveredByLayer) {
		t.Errorf("follower sent %v delivered %v; driver sent %v delivered %v", r.SentByLayer, r.DeliveredByLayer, d.SentByLayer, d.DeliveredByLayer)
	}
	if st := c.Stats(); st != d.Ctrl.Stats() || st.Drops == 0 || st.Stalls > 0 {
		t.Errorf("follower %+v, driver %+v", st, d.Ctrl.Stats())
	}
	if ctr := d.Tr.Counters(); ctr.Lost < 5_000 || r.DeliveredByLayer[2] == 0 {
		t.Errorf("%+v, delivered %v: not lossy or not layered enough to test", ctr, r.DeliveredByLayer)
	}
}
