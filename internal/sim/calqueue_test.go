package sim

import (
	"math/rand"
	"testing"
)

// --- Structure-level differential: calendar vs reference heap ---------

// diffHarness drives a calQueue and the reference heapSched through an
// identical operation stream and asserts every pop returns the same
// (time, seq) event.
type diffHarness struct {
	t    *testing.T
	cal  *calQueue
	heap *heapSched
	seq  uint64
	live int
}

func newDiffHarness(t *testing.T) *diffHarness {
	return &diffHarness{t: t, cal: newCalQueue(), heap: &heapSched{}}
}

func (d *diffHarness) push(at float64) {
	d.seq++
	d.cal.push(&event{time: at, seq: d.seq})
	d.heap.push(&event{time: at, seq: d.seq})
	d.live++
	if got, want := d.cal.len(), d.heap.len(); got != want {
		d.t.Fatalf("after push(%g): calendar len %d, heap len %d", at, got, want)
	}
}

func (d *diffHarness) pop() {
	ce, he := d.cal.pop(), d.heap.pop()
	switch {
	case ce == nil && he == nil:
		return
	case ce == nil || he == nil:
		d.t.Fatalf("pop: calendar %+v, heap %+v", ce, he)
	case ce.time != he.time || ce.seq != he.seq:
		d.t.Fatalf("pop diverged: calendar (t=%g seq=%d), heap (t=%g seq=%d)",
			ce.time, ce.seq, he.time, he.seq)
	}
	d.live--
}

func (d *diffHarness) drain() {
	for d.live > 0 {
		d.pop()
	}
	if d.cal.pop() != nil || d.heap.pop() != nil {
		d.t.Fatal("structures not empty after drain")
	}
}

// TestSchedulerDifferentialRandom replays >= 10k randomized workloads
// against both structures: mixed near/far/same-time pushes interleaved
// with pops, biased so the population swings through resize thresholds
// in both directions and the far-future overflow lane engages.
func TestSchedulerDifferentialRandom(t *testing.T) {
	workloads := 10_000
	if testing.Short() {
		workloads = 1_000
	}
	for w := 0; w < workloads; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		d := newDiffHarness(t)
		now := 0.0
		nops := 20 + rng.Intn(120)
		for i := 0; i < nops; i++ {
			switch r := rng.Float64(); {
			case r < 0.55 || d.live == 0:
				// Near-future push, occasionally at an exact repeat
				// time to exercise the seq tie-break.
				at := now + rng.Float64()*float64(1+rng.Intn(3))
				if r < 0.08 && d.live > 0 {
					at = now
				}
				d.push(at)
			case r < 0.62:
				// Far-future push: lands in the overflow lane.
				d.push(now + 1e3 + rng.Float64()*1e6)
			case r < 0.70:
				// Same-time burst: one bucket, FIFO by seq.
				at := now + rng.Float64()
				for k := 0; k < 1+rng.Intn(8); k++ {
					d.push(at)
				}
			default:
				d.pop()
			}
			// Track an approximate clock so pushes trend forward like
			// engine time does.
			now += rng.Float64() * 0.01
		}
		d.drain()
	}
}

// TestSchedulerDifferentialBursty stresses the resize paths: population
// ramps from empty to thousands and back, repeatedly.
func TestSchedulerDifferentialBursty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := newDiffHarness(t)
	now := 0.0
	for cycle := 0; cycle < 20; cycle++ {
		n := 100 + rng.Intn(3000)
		for i := 0; i < n; i++ {
			d.push(now + rng.Float64()*10)
		}
		for i := 0; i < n/2; i++ {
			d.pop()
		}
		d.drain()
		now += 10
	}
	if d.cal.resizes == 0 {
		t.Fatal("bursty workload never resized the calendar; thresholds untested")
	}
}

// --- Calendar-specific edge cases -------------------------------------

// All events at one instant land in a single bucket regardless of
// width; pops must still come out in scheduling (seq) order and the
// width estimator must not divide toward zero.
func TestCalQueueAllEventsInOneBucket(t *testing.T) {
	c := newCalQueue()
	const n = 500 // well past several resize thresholds
	for i := 1; i <= n; i++ {
		c.push(&event{time: 42, seq: uint64(i)})
	}
	if c.width <= 0 || c.width != c.width /* NaN */ {
		t.Fatalf("degenerate same-time workload corrupted width: %g", c.width)
	}
	for i := 1; i <= n; i++ {
		ev := c.pop()
		if ev == nil || ev.seq != uint64(i) {
			t.Fatalf("pop %d: got %+v, want seq %d", i, ev, i)
		}
	}
	if c.pop() != nil {
		t.Fatal("queue not empty")
	}
}

// Pathological far-future timers: a near-future stream plus events
// scheduled eons ahead. The far events must route through the overflow
// lane (not dilate the calendar's width), migrate back as the position
// catches up, and pop in exact order.
func TestCalQueueFarFutureTimers(t *testing.T) {
	c := newCalQueue()
	var seq uint64
	push := func(at float64) {
		seq++
		c.push(&event{time: at, seq: seq})
	}
	for i := 0; i < 200; i++ {
		push(float64(i) * 1e-3)
		if i%10 == 0 {
			push(1e6 + float64(i)) // ~11 days of virtual time ahead
		}
	}
	if c.ovPushes == 0 {
		t.Fatal("far-future events never used the overflow lane")
	}
	var last *event
	n := 0
	for ev := c.pop(); ev != nil; ev = c.pop() {
		if last != nil && !evLess(last, ev) {
			t.Fatalf("pop order violated: (t=%g seq=%d) after (t=%g seq=%d)",
				ev.time, ev.seq, last.time, last.seq)
		}
		cp := *ev
		last = &cp
		n++
	}
	if n != int(seq) {
		t.Fatalf("popped %d events, pushed %d", n, seq)
	}
}

// Shrinking: draining a large population must walk the bucket count
// back down (and keep popping correctly while doing so).
func TestCalQueueShrinksAfterDrain(t *testing.T) {
	c := newCalQueue()
	for i := 1; i <= 4096; i++ {
		c.push(&event{time: float64(i) * 0.001, seq: uint64(i)})
	}
	grown := len(c.buckets)
	if grown <= minCalBuckets {
		t.Fatalf("4096 events left bucket count at %d; grow threshold broken", grown)
	}
	for i := 1; i <= 4090; i++ {
		if ev := c.pop(); ev == nil || ev.seq != uint64(i) {
			t.Fatalf("pop %d wrong: %+v", i, ev)
		}
	}
	if len(c.buckets) >= grown {
		t.Fatalf("bucket count stayed at %d after drain (was %d at peak)", len(c.buckets), grown)
	}
}

// The scan must survive an empty year: a lone event far beyond the
// current position (but inside the bucket array's modulo range) is
// found by the direct search, and the position jump keeps order.
func TestCalQueueEmptyYearDirectSearch(t *testing.T) {
	c := newCalQueue()
	c.push(&event{time: 0.0001, seq: 1})
	if ev := c.pop(); ev.seq != 1 {
		t.Fatalf("pop got %+v", ev)
	}
	// Next event many years ahead in calendar terms, but below the
	// overflow horizon check at push time it may still go either way;
	// push several spread far apart to force empty-year scans.
	c.push(&event{time: 500, seq: 2})
	c.push(&event{time: 900, seq: 3})
	if ev := c.pop(); ev == nil || ev.seq != 2 {
		t.Fatalf("direct search pop got %+v, want seq 2", ev)
	}
	if ev := c.pop(); ev == nil || ev.seq != 3 {
		t.Fatalf("direct search pop got %+v, want seq 3", ev)
	}
}

// A calendar sized for a dense head has thousands of buckets, and a
// sparse phase — start-up stagger, the tail of a run, a scenario with
// only timers pending — must not pay for them per event. Counted, not
// timed: skips is every bucket peek looked at beyond the one it popped
// from.
func TestCalQueueSparseEventsInLargeCalendar(t *testing.T) {
	// Four events spread over 100 s, each more than a year past the
	// position of an 8192-bucket calendar of 10 us buckets, so they sit in
	// the overflow lane with every bucket empty. The parent's peek scanned
	// all 8192 heads for each of them.
	c := newCalQueue()
	c.buckets = make([]calBucket, 8192)
	c.mask, c.width, c.inv = 8191, 1e-5, 1e5
	c.openWindow(1)
	for i := 1; i <= 4; i++ {
		c.push(&event{time: 25 * float64(i), seq: uint64(i)})
	}
	for i := 1; i <= 4; i++ {
		if len(c.buckets) != 8192 || c.ovPushes != 4 {
			t.Fatalf("set-up lost: %d buckets, %d overflow pushes", len(c.buckets), c.ovPushes)
		}
		if ev := c.pop(); ev == nil || ev.seq != uint64(i) {
			t.Fatalf("pop %d: got %+v", i, ev)
		}
	}
	if c.skips > 4 {
		t.Fatalf("4 sparse pops looked at %d buckets, want O(1) each", c.skips)
	}

	// The same through the front door: 20000 events 1 us apart grow the
	// calendar past 8192 buckets with four timers pending far behind them;
	// draining the dense head and then the timers must cost O(1) bucket
	// visits per pop, amortised over the drain.
	c = newCalQueue()
	var seq uint64
	push := func(at float64) {
		seq++
		c.push(&event{time: at, seq: seq})
	}
	for i := 1; i <= 4; i++ {
		push(25 * float64(i))
	}
	for i := 0; i < 20000; i++ {
		push(float64(i) * 1e-6)
	}
	if len(c.buckets) < 8192 {
		t.Fatalf("dense phase grew the calendar to %d buckets, want >= 8192", len(c.buckets))
	}
	var last float64
	for i := 0; i < 20004; i++ {
		if i == 20000 {
			c.skips = 0 // the four timers alone
		}
		ev := c.pop()
		if ev == nil || ev.time < last {
			t.Fatalf("pop %d: got %+v after t=%g", i, ev, last)
		}
		last = ev.time
		if i == 19999 && c.skips > 2*20000 {
			t.Fatalf("draining 20000 dense events looked at %d buckets, want O(1) each", c.skips)
		}
	}
	if c.skips > 4*8 {
		t.Fatalf("the 4 timers left behind looked at %d buckets, want O(1) each", c.skips)
	}
	if len(c.buckets) >= 8192 {
		t.Fatalf("calendar still has %d buckets for an empty queue", len(c.buckets))
	}
}

// --- Engine-level differential ----------------------------------------

// TestEngineSchedulerDifferential runs two engines — calendar and heap —
// through an identical randomized At/AtFunc/AtFuncPrio/Cancel/RunUntil
// workload and asserts the firing order (callback identity and time) is
// bit-for-bit identical, including same-time (pt, seq) ties and
// cancel-after-recycle handles. Its delay-line leg sends constant-delay
// hops down delay lines among those timers and asserts the same order
// as the identical workload with every hop an AfterFunc, on both.
func TestEngineSchedulerDifferential(t *testing.T) {
	workloads := 300
	if testing.Short() {
		workloads = 50
	}
	t.Run("timers", func(t *testing.T) {
		for w := 0; w < workloads; w++ {
			cal, heap := timerWorkload(NewEngine(), w), timerWorkload(&Engine{sched: &heapSched{}}, w)
			sameFirings(t, w, "calendar", cal, "heap", heap)
		}
	})
	t.Run("delay-lines", func(t *testing.T) {
		onHorizon := 0
		for w := 0; w < workloads; w++ {
			ref, _ := hopWorkload(&Engine{sched: &heapSched{}}, w, false)
			cal, _ := hopWorkload(NewEngine(), w, false)
			sameFirings(t, w, "heap+AfterFunc", ref, "calendar+AfterFunc", cal)
			heapLines, _ := hopWorkload(&Engine{sched: &heapSched{}}, w, true)
			sameFirings(t, w, "heap+AfterFunc", ref, "heap+lines", heapLines)
			calLines, n := hopWorkload(NewEngine(), w, true)
			sameFirings(t, w, "heap+AfterFunc", ref, "calendar+lines", calLines)
			onHorizon += n
		}
		if onHorizon == 0 {
			t.Error("no RunBelow horizon fell exactly on a pending line head")
		}
	})
}

// fired is one callback run: which, and when.
type fired struct {
	id int
	at float64
}

func sameFirings(t *testing.T, w int, an string, a []fired, bn string, b []fired) {
	t.Helper()
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			t.Fatalf("workload %d: firing %d diverged: %s %+v, %s %+v", w, i, an, a[i], bn, b[i])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("workload %d: %s fired %d callbacks, %s %d", w, an, len(a), bn, len(b))
	}
}

// timerWorkload is workload w of calendar timers only.
func timerWorkload(e *Engine, w int) []fired {
	rng := rand.New(rand.NewSource(int64(w)))
	var log []fired
	var timers []Timer
	id := 0
	schedule := func() {
		id := id
		at := e.Now() + rng.Float64()*rng.Float64()*5
		if rng.Intn(10) == 0 {
			at = e.Now() // same-instant scheduling
		}
		if rng.Intn(12) == 0 {
			at = e.Now() + 1e4 + rng.Float64()*1e5 // far future
		}
		var tm Timer
		switch rng.Intn(3) {
		case 0:
			tm = e.At(at, func() { log = append(log, fired{id, e.Now()}) })
		case 1:
			tm = e.AtFunc(at, func(any) { log = append(log, fired{id, e.Now()}) }, nil)
		default:
			// An explicit tie key behind the clock, as the sharded
			// runner injects: equal-time order is (pt, seq), not seq.
			tm = e.AtFuncPrio(at, e.Now()*rng.Float64(), func(any) { log = append(log, fired{id, e.Now()}) }, nil)
		}
		timers = append(timers, tm)
	}
	for i := 0; i < 150; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			schedule()
			id++
		case r < 7 && len(timers) > 0:
			// Cancel a random handle — possibly stale (fired
			// and recycled), which must be a no-op.
			timers[rng.Intn(len(timers))].Cancel()
		case r < 9:
			e.RunUntil(e.Now() + rng.Float64()*3)
		default:
			e.Step()
		}
	}
	e.Run()
	return log
}

// hopWorkload is workload w of packet hops on four constant-delay
// paths (one of zero delay, two sharing a delay) mixed with calendar
// timers, some cancelled, some with explicit tie keys. A hop rides a
// delay line if lines is set and is an AfterFunc otherwise; arriving
// hops and firing timers send more hops and set more timers. Every time
// is a multiple of 1/4, so hops, timers and RunBelow/RunUntil horizons
// tie exactly and often; with lines it also counts the RunBelow calls
// whose horizon is exactly a pending line head.
func hopWorkload(e *Engine, w int, lines bool) (log []fired, onHorizon int) {
	rng := rand.New(rand.NewSource(int64(w)))
	delays := []float64{0, 0.25, 0.25, 1}
	var timers []Timer
	id := 0
	var send func(path int)
	var schedule func()
	react := func(id int) {
		log = append(log, fired{id, e.Now()})
		switch rng.Intn(4) {
		case 0:
			send(rng.Intn(len(delays)))
		case 1:
			schedule()
		}
	}
	hopLines := make([]*delayLine, len(delays))
	hopFns := make([]func(any), len(delays))
	for i := range delays {
		hopLines[i] = e.newLine(func(p *Packet) { react(int(p.Seq)) })
		hopFns[i] = func(arg any) { react(int(arg.(*Packet).Seq)) }
	}
	send = func(path int) {
		id++
		p := &Packet{Seq: int64(id)}
		if lines {
			hopLines[path].after(delays[path], p)
		} else {
			e.AfterFunc(delays[path], hopFns[path], p)
		}
	}
	schedule = func() {
		id++
		id := id
		at := e.Now() + float64(rng.Intn(9))/4
		if rng.Intn(3) == 0 {
			timers = append(timers, e.AtFuncPrio(at, e.Now()-float64(rng.Intn(2))/4, func(any) { react(id) }, nil))
			return
		}
		timers = append(timers, e.At(at, func() { react(id) }))
	}
	for i := 0; i < 150; i++ {
		switch r := rng.Intn(12); {
		case r < 4:
			send(rng.Intn(len(delays)))
		case r < 6:
			schedule()
		case r < 7 && len(timers) > 0:
			timers[rng.Intn(len(timers))].Cancel()
		case r < 9:
			h := e.Now() + float64(rng.Intn(5))/4
			for _, l := range hopLines {
				if l.q.n > 0 && l.time == h {
					onHorizon++
					break
				}
			}
			e.RunBelow(h)
		case r < 11:
			e.RunUntil(e.Now() + float64(rng.Intn(5))/4)
		default:
			e.Step()
		}
	}
	for i := 0; i < 1000 && e.Step(); i++ {
	}
	return log, onHorizon
}

// --- Timer semantics on the calendar ----------------------------------

// Cancel/Active must work for events resident in calendar buckets, in
// the far-future overflow lane, and for stale handles whose event has
// been recycled into a new scheduling.
func TestTimerCancelInBucketsAndOverflow(t *testing.T) {
	e := NewEngine()
	cq := e.sched.(*calQueue)

	ranBucket, ranOv := false, false
	tmBucket := e.At(0.001, func() { ranBucket = true })
	tmOv := e.At(1e6, func() { ranOv = true }) // far future: overflow lane
	if cq.ovPushes == 0 {
		t.Fatal("far-future timer did not route through the overflow lane")
	}
	if !tmBucket.Active() || !tmOv.Active() {
		t.Fatal("pending timers must be active in both lanes")
	}
	tmBucket.Cancel()
	tmOv.Cancel()
	if tmBucket.Active() || tmOv.Active() {
		t.Fatal("cancelled timers still active")
	}
	e.Run()
	if ranBucket || ranOv {
		t.Fatalf("cancelled timers ran: bucket=%v overflow=%v", ranBucket, ranOv)
	}
	if e.cancelled != 2 {
		t.Fatalf("engine released %d dead events, want 2", e.cancelled)
	}

	// Cancel-after-recycle: a stale handle must not kill the recycled
	// event, wherever it now lives.
	stale := e.At(e.Now()+0.001, func() {})
	e.Run()
	ran := false
	fresh := e.At(e.Now()+1e6, func() { ran = true }) // recycled into overflow
	stale.Cancel()
	if stale.Active() {
		t.Fatal("stale timer reports active after recycle")
	}
	if !fresh.Active() {
		t.Fatal("fresh overflow timer lost its pending state")
	}
	e.Run()
	if !ran {
		t.Fatal("stale Cancel killed a recycled overflow event")
	}
}

// A cancelled far-future timer beyond the RunUntil horizon must be
// released at the peek, exactly like the heap's behavior.
func TestRunUntilReleasesDeadOverflowEvents(t *testing.T) {
	e := NewEngine()
	var tms []Timer
	for i := 0; i < 50; i++ {
		tms = append(tms, e.At(1e6+float64(i), func() {}))
	}
	for _, tm := range tms {
		tm.Cancel()
	}
	e.RunUntil(1)
	if n := e.sched.len(); n != 0 {
		t.Fatalf("%d dead overflow events still queued after RunUntil", n)
	}
	if e.Now() != 1 {
		t.Fatalf("Now() = %v, want 1", e.Now())
	}
}

// Steady-state scheduling through the calendar must stay allocation
// free once the free list and bucket rings are warm — the same contract
// the heap-era engine had.
func TestCalQueueSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	// Warm up: drive the population up so resizes and the overflow
	// lane reach their high-water marks, then drain.
	for i := 0; i < 1000; i++ {
		e.AtFunc(float64(i)*0.001, nop, nil)
	}
	e.AtFunc(1e5, nop, nil) // park one far-future event
	e.RunUntil(10)
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterFunc(0.001, nop, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per schedule+step at steady state, want 0", allocs)
	}
}

// BenchmarkSchedSynthetic pits the two structures against synthetic
// hold-model workloads (the classic calendar-queue benchmark: pop one,
// push one at a random offset) at several steady populations: "hold"
// draws every offset from one uniform distribution; "headtail" draws 19
// in 20 from it and the rest 100x further out, the dense head plus
// sparse far tail of a packet simulation with timers. The recorded-trace
// benchmark is BenchmarkSchedReplay (sched_bench_test.go).
func BenchmarkSchedSynthetic(b *testing.B) {
	for _, sc := range schedulers {
		for _, dist := range []struct {
			name    string
			farOdds int // one push in farOdds lands 100x further out; 0: none
		}{{"hold", 0}, {"headtail", 20}} {
			for _, depth := range []int{64, 512, 4096} {
				b.Run(sc.name+"/"+dist.name+itoa(depth), func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					offset := func() float64 {
						if dist.farOdds > 0 && rng.Intn(dist.farOdds) == 0 {
							return rng.Float64()
						}
						return rng.Float64() * 0.01
					}
					s := sc.new()
					var seq uint64
					events := make([]*event, depth)
					for i := range events {
						events[i] = &event{}
					}
					for _, ev := range events {
						seq++
						ev.time, ev.seq = 100*offset(), seq
						s.push(ev)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ev := s.pop()
						seq++
						ev.time, ev.seq = ev.time+offset(), seq
						s.push(ev)
					}
				})
			}
		}
	}
}

func itoa(n int) string {
	buf := [8]byte{}
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
