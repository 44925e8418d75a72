package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func mkPkt(seq int64, size int) *Packet {
	return &Packet{Seq: seq, Size: size, Kind: Data}
}

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(10000)
	for i := int64(0); i < 5; i++ {
		if !q.Enqueue(mkPkt(i, 100)) {
			t.Fatalf("enqueue %d dropped", i)
		}
	}
	if q.Len() != 5 || q.Bytes() != 500 {
		t.Fatalf("len=%d bytes=%d, want 5/500", q.Len(), q.Bytes())
	}
	for i := int64(0); i < 5; i++ {
		p := q.Dequeue()
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue got %v, want seq %d", p, i)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue from empty queue returned a packet")
	}
}

func TestDropTailDropsWhenFull(t *testing.T) {
	q := NewDropTail(250)
	if !q.Enqueue(mkPkt(0, 100)) || !q.Enqueue(mkPkt(1, 100)) {
		t.Fatal("first two packets should fit")
	}
	if q.Enqueue(mkPkt(2, 100)) {
		t.Fatal("third packet should be tail-dropped")
	}
	if q.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", q.Drops())
	}
	// After draining one, a new packet fits again.
	q.Dequeue()
	if !q.Enqueue(mkPkt(3, 100)) {
		t.Fatal("packet should fit after dequeue")
	}
}

func TestDropTailByteAccounting(t *testing.T) {
	f := func(sizes []uint8) bool {
		q := NewDropTail(1 << 20)
		want := 0
		for i, s := range sizes {
			size := int(s) + 1
			if q.Enqueue(mkPkt(int64(i), size)) {
				want += size
			}
		}
		if q.Bytes() != want {
			return false
		}
		for q.Dequeue() != nil {
		}
		return q.Bytes() == 0 && q.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Sustained enqueue/dequeue cycles must settle into the ring's backing
// array: the old front-reslice implementation pinned consumed prefixes
// and kept reallocating, so this soak asserts zero steady-state allocs.
func TestDropTailSoakDoesNotGrow(t *testing.T) {
	q := NewDropTail(1 << 20)
	pkts := make([]*Packet, 64)
	for i := range pkts {
		pkts[i] = mkPkt(int64(i), 512)
	}
	// Warm up: let the ring reach its steady-state capacity.
	for cycle := 0; cycle < 4; cycle++ {
		for _, p := range pkts {
			q.Enqueue(p)
		}
		for q.Dequeue() != nil {
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, p := range pkts {
			if !q.Enqueue(p) {
				t.Fatal("soak enqueue dropped below limit")
			}
		}
		for q.Dequeue() != nil {
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per 64-packet cycle; ring should be alloc-free at steady state", allocs)
	}
}

func TestDropTailFIFOAcrossWraparound(t *testing.T) {
	q := NewDropTail(1 << 20)
	next := int64(0) // next seq to enqueue
	want := int64(0) // next seq expected out
	// Interleave enqueues and dequeues so head walks around the ring.
	for step := 0; step < 200; step++ {
		for i := 0; i < 3; i++ {
			if !q.Enqueue(mkPkt(next, 100)) {
				t.Fatalf("enqueue %d dropped", next)
			}
			next++
		}
		for i := 0; i < 2; i++ {
			p := q.Dequeue()
			if p == nil || p.Seq != want {
				t.Fatalf("dequeue got %v, want seq %d", p, want)
			}
			want++
		}
	}
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		if p.Seq != want {
			t.Fatalf("drain got seq %d, want %d", p.Seq, want)
		}
		want++
	}
	if want != next || q.Bytes() != 0 {
		t.Fatalf("drained %d of %d packets, %d bytes left", want, next, q.Bytes())
	}
}

// BenchmarkDropTailRing measures the raw enqueue/dequeue cycle — the
// per-packet ring indexing on the link hot path (mask vs modulo).
func BenchmarkDropTailRing(b *testing.B) {
	q := NewDropTail(1 << 20)
	pkts := make([]*Packet, 64)
	for i := range pkts {
		pkts[i] = mkPkt(int64(i), 512)
	}
	// Warm the ring to steady-state capacity.
	for _, p := range pkts {
		q.Enqueue(p)
	}
	for q.Dequeue() != nil {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkts[i&63]
		q.Enqueue(p)
		q.Dequeue()
	}
}

// newTestRED is NewRED with the thresholds (packets) replaced and, when
// wq > 0, the averaging weight: values only these tests vary.
func newTestRED(cfg REDConfig, minTh, maxTh, wq float64) *RED {
	q := NewRED(cfg)
	q.minTh, q.maxTh = minTh, maxTh
	if wq > 0 {
		q.wq = wq
	}
	return q
}

func TestREDDropsUnderSustainedLoad(t *testing.T) {
	q := NewRED(REDConfig{LimitBytes: 64 * 512, MeanPktSize: 512, Seed: 42})
	drops := 0
	// Keep the queue persistently long; RED must drop before the hard limit.
	for i := 0; i < 2000; i++ {
		if !q.Enqueue(mkPkt(int64(i), 512)) {
			drops++
		}
		if q.Len() > 20 {
			q.Dequeue()
		}
	}
	if drops == 0 {
		t.Fatal("RED never dropped under sustained overload")
	}
	if q.Drops() != int64(drops) {
		t.Fatalf("drop counter %d != observed %d", q.Drops(), drops)
	}
}

func TestREDQuietQueueDoesNotDrop(t *testing.T) {
	q := NewRED(REDConfig{LimitBytes: 64 * 512, MeanPktSize: 512, Seed: 1})
	for i := 0; i < 1000; i++ {
		if !q.Enqueue(mkPkt(int64(i), 512)) {
			t.Fatalf("RED dropped packet %d from an always-short queue", i)
		}
		q.Dequeue() // queue never builds
	}
}

// RED's buffer is the same power-of-two ring DropTail uses: sustained
// enqueue/dequeue cycles must settle into one backing array with zero
// steady-state allocations (the old front-reslice kept pinning consumed
// prefixes and reallocating).
func TestREDSoakDoesNotGrow(t *testing.T) {
	// Thresholds high enough that nothing early-drops: the soak
	// exercises the ring, not the drop path.
	q := newTestRED(REDConfig{LimitBytes: 1 << 20, MeanPktSize: 512, Seed: 7}, 1e6, 3e6, 0)
	pkts := make([]*Packet, 64)
	for i := range pkts {
		pkts[i] = mkPkt(int64(i), 512)
	}
	// Warm up: let the ring reach its steady-state capacity.
	for cycle := 0; cycle < 4; cycle++ {
		for _, p := range pkts {
			q.Enqueue(p)
		}
		for q.Dequeue() != nil {
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, p := range pkts {
			if !q.Enqueue(p) {
				t.Fatal("soak enqueue dropped below thresholds")
			}
		}
		for q.Dequeue() != nil {
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per 64-packet cycle; RED ring should be alloc-free at steady state", allocs)
	}
}

func TestREDFIFOAcrossWraparound(t *testing.T) {
	q := newTestRED(REDConfig{LimitBytes: 1 << 20, MeanPktSize: 512, Seed: 7}, 1e6, 3e6, 0)
	next := int64(0) // next seq to enqueue
	want := int64(0) // next seq expected out
	// Interleave enqueues and dequeues so head walks around the ring.
	for step := 0; step < 200; step++ {
		for i := 0; i < 3; i++ {
			if !q.Enqueue(mkPkt(next, 100)) {
				t.Fatalf("enqueue %d dropped", next)
			}
			next++
		}
		for i := 0; i < 2; i++ {
			p := q.Dequeue()
			if p == nil || p.Seq != want {
				t.Fatalf("dequeue got %v, want seq %d", p, want)
			}
			want++
		}
	}
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		if p.Seq != want {
			t.Fatalf("drain got seq %d, want %d", p.Seq, want)
		}
		want++
	}
	if want != next || q.Bytes() != 0 || q.Len() != 0 {
		t.Fatalf("drained %d of %d packets, %d bytes left", want, next, q.Bytes())
	}
}

// With a virtual clock configured, the queue average must decay across
// idle periods (Floyd-Jacobson: avg *= (1-wq)^m, m = idle/slot) rather
// than hold its last busy-period value until the next arrival's single
// EWMA step.
func TestREDIdleDecaysAverage(t *testing.T) {
	now := 0.0
	clock := func() float64 { return now }
	// LinkRate 512 B/s -> one 512 B packet slot per second.
	q := newTestRED(REDConfig{LimitBytes: 1 << 20, MeanPktSize: 512, Seed: 7, Now: clock, LinkRate: 512},
		1e6, 3e6, 0.1)
	// Build up a nonzero average.
	for i := 0; i < 50; i++ {
		q.Enqueue(mkPkt(int64(i), 512))
	}
	busy := q.avg
	if busy <= 0 {
		t.Fatal("busy queue built no average")
	}
	for q.Dequeue() != nil {
	}
	// 1000 idle slots: the average must be driven to ~(1-wq)^1000 ~ 0.
	now = 1000
	q.Enqueue(mkPkt(99, 512))
	if q.avg >= busy*1e-9 {
		t.Fatalf("idle period left avg at %g (busy %g); want Floyd-Jacobson decay", q.avg, busy)
	}

	// Same queue without a clock: the old EWMA-on-arrival behavior,
	// one small step toward zero per arrival, no idle decay.
	q2 := newTestRED(REDConfig{LimitBytes: 1 << 20, MeanPktSize: 512, Seed: 7}, 1e6, 3e6, 0.1)
	for i := 0; i < 50; i++ {
		q2.Enqueue(mkPkt(int64(i), 512))
	}
	busy2 := q2.avg
	for q2.Dequeue() != nil {
	}
	q2.Enqueue(mkPkt(99, 512))
	if q2.avg < busy2*(1-0.1)*0.999 {
		t.Fatalf("clockless RED decayed avg to %g (busy %g); want a single EWMA step", q2.avg, busy2)
	}
}

// A hybrid fluid backlog registered via SetAuxBytes must count toward
// RED's averaged queue length, suppress idle decay while it is nonzero,
// and surface through EarlyDropProb's deterministic ramp.
func TestREDAuxBytesAndEarlyDropProb(t *testing.T) {
	q := newTestRED(REDConfig{LimitBytes: 1 << 20, MeanPktSize: 512, Seed: 7}, 5, 15, 0.5)
	if got := q.EarlyDropProb(); got != 0 {
		t.Fatalf("EarlyDropProb on an empty queue = %v, want 0", got)
	}

	// 10 mean packets of fluid occupancy, zero packet bytes: arrivals
	// must still push the average toward 10, halfway up the ramp.
	q.SetAuxBytes(func() float64 { return 10 * 512 })
	for i := 0; i < 40; i++ {
		p := mkPkt(int64(i), 512)
		if q.Enqueue(p) {
			q.Dequeue()
		}
	}
	// avg has converged near 10 packets (the enqueued packet adds ~1).
	if q.avg < 9 || q.avg > 12 {
		t.Fatalf("avg = %v with a 10-packet fluid backlog, want ~10", q.avg)
	}
	want := 0.1 * (q.avg - 5) / (15 - 5)
	if got := q.EarlyDropProb(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("EarlyDropProb = %v, want ramp value %v", got, want)
	}

	// Pin the average above the maximum threshold: the ramp saturates at 1.
	q.SetAuxBytes(func() float64 { return 100 * 512 })
	for i := 0; i < 20; i++ {
		q.Enqueue(mkPkt(int64(100+i), 512))
	}
	if got := q.EarlyDropProb(); got != 1 {
		t.Fatalf("EarlyDropProb above the maximum threshold = %v, want 1", got)
	}

	// Idle decay must not fire while fluid occupancy persists: a queue
	// holding fluid is not idle, whatever its packet count.
	now := 0.0
	q2 := newTestRED(REDConfig{LimitBytes: 1 << 20, MeanPktSize: 512, Seed: 7,
		Now: func() float64 { return now }, LinkRate: 512}, 1e6, 3e6, 0.1)
	q2.SetAuxBytes(func() float64 { return 20 * 512 })
	for i := 0; i < 50; i++ {
		if q2.Enqueue(mkPkt(int64(i), 512)) {
			q2.Dequeue()
		}
	}
	busy := q2.avg
	now = 1000 // would decay avg to ~0 were the queue considered idle
	q2.Enqueue(mkPkt(99, 512))
	if q2.avg < busy*0.5 {
		t.Fatalf("avg decayed to %g (busy %g) despite fluid occupancy", q2.avg, busy)
	}
}

func TestREDHardLimit(t *testing.T) {
	q := newTestRED(REDConfig{LimitBytes: 4 * 512, MeanPktSize: 512, Seed: 1}, 100, 300, 0)
	fits := 0
	for i := 0; i < 10; i++ {
		if q.Enqueue(mkPkt(int64(i), 512)) {
			fits++
		}
	}
	if fits != 4 {
		t.Fatalf("RED hard limit admitted %d packets, want 4", fits)
	}
}
