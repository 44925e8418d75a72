package flow

import (
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
	if _, ok := d.Ack(now, seqs[1]); !ok {
		t.Fatal("first ACK not credited")
	}
	buf := d.Ctrl.TotalBuf()
	for i := 0; i < 3; i++ {
		if backedOff, ok := d.Ack(now+float64(i)*0.01, seqs[1]); ok || backedOff {
			t.Fatalf("duplicate ACK %d: backedOff %v, credited %v", i, backedOff, ok)
		}
	}
	if got := d.Ctrl.TotalBuf(); got != buf || credited(d) != 1 || d.Tr.Counters().Acked != 1 {
		t.Fatalf("after 3 duplicates: buffer %v -> %v, credited %d, acked %d", buf, got, credited(d), d.Tr.Counters().Acked)
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
	backedOff, ok := d.Ack(now, seqs[3])
	if !backedOff || !ok {
		t.Fatalf("ACK 3: backedOff %v, credited %v; want a backoff (seq 0 lost) and a credit", backedOff, ok)
	}
	// ACK 9 an instant later: 1, 2, 4, 5, 6 are lost inside the fence.
	backedOff, ok = d.Ack(now+1e-3, seqs[9])
	if backedOff || !ok {
		t.Fatalf("ACK 9 inside the fence: backedOff %v, credited %v; want no backoff and a credit", backedOff, ok)
	}
	c := d.Tr.Counters()
	if c.Lost != 6 || c.Backoffs != 1 || d.Tr.Outstanding() != 4 {
		t.Fatalf("lost %d, backoffs %d, outstanding %d; want 6, 1, 4", c.Lost, c.Backoffs, d.Tr.Outstanding())
	}
	buf, rate := d.Ctrl.TotalBuf(), d.Tr.Rate()
	for _, seq := range []int64{0 /* lost outside the fence */, 1, 2, 4, 5, 6 /* inside */} {
		if backedOff, ok := d.Ack(now+2e-3, seq); backedOff || ok {
			t.Fatalf("late ACK for lost seq %d: backedOff %v, credited %v", seq, backedOff, ok)
		}
	}
	if d.Ctrl.TotalBuf() != buf || d.Tr.Rate() != rate || credited(d) != 2 || d.Tr.Counters().Acked != 2 {
		t.Fatalf("late ACKs moved state: buffer %v -> %v, rate %v -> %v, credited %d, acked %d",
			buf, d.Ctrl.TotalBuf(), rate, d.Tr.Rate(), credited(d), d.Tr.Counters().Acked)
	}
}

func TestAckForNeverSentSeqChangesNothing(t *testing.T) {
	d := newDriver(t, transport.RAPConfig{}, core.Params{})
	seqs := sendN(d, 6)
	now := d.NextSend
	buf, rate, out := d.Ctrl.TotalBuf(), d.Tr.Rate(), d.Tr.Outstanding()
	for _, seq := range []int64{int64(len(seqs)), 1 << 40, -1, -1 << 40} {
		if backedOff, ok := d.Ack(now, seq); backedOff || ok {
			t.Fatalf("ACK for never-sent seq %d: backedOff %v, credited %v", seq, backedOff, ok)
		}
	}
	c := d.Tr.Counters()
	if d.Ctrl.TotalBuf() != buf || d.Tr.Rate() != rate || d.Tr.Outstanding() != out || c.Lost != 0 || c.Acked != 0 {
		t.Fatalf("state moved: buffer %v -> %v, rate %v -> %v, outstanding %d -> %d, lost %d, acked %d",
			buf, d.Ctrl.TotalBuf(), rate, d.Tr.Rate(), out, d.Tr.Outstanding(), c.Lost, c.Acked)
	}
	// The honest ACKs that follow are all taken.
	for _, seq := range seqs {
		if _, ok := d.Ack(now, seq); !ok {
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
	backedOff, ok := d.Ack(d.NextSend+10, x)
	if !backedOff || !ok {
		t.Fatalf("ACK %d: backedOff %v, credited %v; want both", x, backedOff, ok)
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
	if _, ok := d.Ack(now, seq0); ok {
		t.Fatal("repair ACK credited")
	}
	if _, ok := d.Ack(now, seq1); !ok {
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
	if backedOff, _ := d.Ack(d.NextSend, seqs[3]); !backedOff {
		t.Fatal("no backoff")
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
	if backedOff, ok := d.Ack(d.NextSend, seqs[4]); !backedOff || ok {
		t.Fatalf("ACK 4 of 0..4: backedOff %v, credited %v; want a backoff and no credit", backedOff, ok)
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
