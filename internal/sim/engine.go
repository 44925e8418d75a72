// Package sim is a small discrete-event network simulator.
//
// It provides the substrate the paper evaluated on (ns-2 in the original
// work): an event loop with virtual time, a dumbbell topology with a single
// bottleneck link, FIFO (DropTail) and RED queues, and plumbing for packet
// sources and sinks. All times are in seconds, all sizes in bytes, and all
// rates in bytes per second.
package sim

import (
	"fmt"
	"math"

	"qav/internal/metrics"
)

// Event is a scheduled callback in virtual time. Events are recycled
// through the engine's free list once they fire (or are skipped as dead),
// so a Timer must never trust its *event pointer alone: the generation
// counter ties a Timer to one particular scheduling of the event.
//
// An event carries either a plain callback (fn) or an argumented one
// (fn1 + arg). The second form exists so hot paths can schedule with a
// long-lived function value and a pointer argument instead of minting a
// fresh closure per packet (see Engine.AtFunc).
//
// The struct doubles as the scheduler's node: idx is the calendar
// queue's queued/popped flag (the test-only reference heap keeps its
// slot there), next links a calendar bucket's sorted list, and vb
// caches the event's virtual bucket, so no scheduler ever allocates per
// operation.
type event struct {
	// The scheduler's fields first, so an insert that compares against
	// a queued event and links behind it touches one cache line of it.
	time float64
	pt   float64 // first tie-breaker: virtual time the event was scheduled at
	seq  uint64  // second tie-breaker: preserves scheduling order at equal (time, pt)
	next *event  // calendar bucket list link
	vb   int64   // calendar virtual bucket = floor(time/width)
	idx  int     // >= 0 while queued; -1 once popped (Timer.Active reads it)
	fn   func()
	fn1  func(any)
	arg  any
	gen  uint64 // bumped every time the event is recycled
	dead bool
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from running. Safe to call on a
// zero Timer or after the event has fired (including after the engine
// has recycled the underlying event for a later scheduling). The event
// is deleted lazily: it stays queued, still ordered, until the engine
// pops it and discards it unfired.
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.dead = true
	}
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.dead && t.ev.idx >= 0
}

// Engine drives virtual time. The zero value is not usable; call NewEngine.
//
// An Engine is single-threaded: all scheduling and stepping must happen
// from one goroutine. Concurrency lives above it (see scenario.RunAll,
// which runs one private Engine per worker).
type Engine struct {
	now   float64
	curPt float64 // pt of the event being executed (shard.go reads it)
	seq   uint64
	sched scheduler
	nRun  uint64
	free  []*event // recycled events; a simulation at steady state stops allocating
	pool  PacketPool
	rec   *SchedRecorder // optional operation capture (RecordSched)

	// The packet hops in flight ride delay lines (line.go), not the
	// calendar; minLine is the non-empty line with the least head, nil
	// when every line is empty.
	lines   []*delayLine
	minLine *delayLine

	// head caches the calendar's least event while headOK, so firing a
	// run of line hops does not ask the calendar again each time: a
	// push can only replace it with the pushed event, and a pop
	// invalidates it.
	head   *event
	headOK bool

	// Event-loop statistics. Plain fields, not atomics: the engine is
	// single-threaded, so tracking costs a predictable increment per
	// event, and Instrument publishes them as snapshot-time Func
	// metrics instead of taxing the hot path.
	recycleHits uint64 // schedules served from the free list
	cancelled   uint64 // dead (cancelled) events released unfired
	depth       int    // pending events (the scheduler's len, kept here to spare the call)
	depthMax    int    // high-water mark of depth
}

// maxFreeEvents caps the event free list. A transient burst of events
// (e.g. a sweep's warm-up) would otherwise pin its high-water mark of
// dead event structs for the lifetime of the engine; beyond the cap,
// recycled events are dropped for the GC to collect.
const maxFreeEvents = 8192

// NewEngine returns an engine with the clock at zero, scheduling on the
// calendar queue.
func NewEngine() *Engine { return &Engine{sched: newCalQueue()} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// Pool returns the engine-owned packet free list. Like the engine
// itself it is single-threaded: all Get/Put calls must come from the
// goroutine driving the engine.
func (e *Engine) Pool() *PacketPool { return &e.pool }

// Instrument publishes the engine's event-loop statistics on reg as
// snapshot-time Func metrics: events scheduled and executed (delay-line
// hops included), recycled (free-list hits), cancelled (dead events
// released unfired), the calendar's current and peak depth, inserts
// (sim.sched.pushes: the events that did not ride a delay line), tuning
// (retunes, those that changed the bucket count, bucket count and
// width) and cost (list links walked by sorted inserts, far-future
// overflow routings: a walk of more than a link or so per insert, or an
// overflow share of more than a few percent, is a mistuned calendar).
// The record path stays the engine's existing plain-field increments —
// instrumentation adds nothing per event. Snapshots must be
// synchronized with the engine's goroutine (taken from it, or after the
// run finishes).
func (e *Engine) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("sim.events.scheduled", func() int64 { return int64(e.seq) })
	reg.CounterFunc("sim.events.executed", func() int64 { return int64(e.nRun) })
	reg.CounterFunc("sim.events.recycled", func() int64 { return int64(e.recycleHits) })
	reg.CounterFunc("sim.events.cancelled", func() int64 { return int64(e.cancelled) })
	reg.GaugeFunc("sim.sched.depth", func() float64 { return float64(e.sched.len()) })
	reg.GaugeFunc("sim.sched.maxdepth", func() float64 { return float64(e.depthMax) })
	if cq, ok := e.sched.(*calQueue); ok {
		reg.CounterFunc("sim.sched.pushes", func() int64 { return int64(cq.pushes) })
		reg.CounterFunc("sim.sched.resizes", func() int64 { return int64(cq.resizes) })
		reg.CounterFunc("sim.sched.retunes", func() int64 { return int64(cq.retunes) })
		reg.CounterFunc("sim.sched.overflow", func() int64 { return int64(cq.ovPushes) })
		reg.CounterFunc("sim.sched.walk", func() int64 { return int64(cq.walk) })
		reg.GaugeFunc("sim.sched.buckets", func() float64 { return float64(len(cq.buckets)) })
		reg.GaugeFunc("sim.sched.width_us", func() float64 { return cq.width * 1e6 })
	}
	reg.CounterFunc("sim.packets.pooled.gets", func() int64 { return int64(e.pool.Gets) })
	reg.CounterFunc("sim.packets.pooled.news", func() int64 { return int64(e.pool.News) })
}

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(t float64, fn func()) Timer {
	return e.schedule(t, e.now, fn, nil, nil)
}

// AtFunc schedules fn(arg) at absolute virtual time t. Unlike At, the
// callback and its argument are stored separately on the recycled event,
// so a call site that reuses a long-lived fn (a bound method stored at
// construction, or a package-level func) schedules without allocating.
func (e *Engine) AtFunc(t float64, fn func(arg any), arg any) Timer {
	return e.schedule(t, e.now, nil, fn, arg)
}

// AtFuncPrio schedules fn(arg) at absolute virtual time t with an
// explicit scheduling-time tie key pt. Events at equal time execute in
// ascending (pt, seq) order; At/AtFunc record pt = Now(), which makes
// that exactly the classic scheduling-sequence order for a lone engine.
// The sharded runner injects cross-shard arrivals at window barriers —
// wall-clock long after the peer engine emitted them — and passes the
// emitting engine's virtual clock as pt, so a serial run and a sharded
// run resolve same-instant ties (a packet arriving at a queue in the
// same instant the link frees a slot) identically. pt must not exceed
// t: an event cannot have been scheduled after it fires.
func (e *Engine) AtFuncPrio(t, pt float64, fn func(arg any), arg any) Timer {
	if pt > t {
		panic(fmt.Sprintf("sim: event at %.9f with scheduling tie key %.9f in its future", t, pt))
	}
	return e.schedule(t, pt, nil, fn, arg)
}

func (e *Engine) schedule(t, pt float64, fn func(), fn1 func(any), arg any) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %.9f before now %.9f", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic("sim: scheduling event at non-finite time")
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		e.recycleHits++
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.time, ev.pt, ev.seq, ev.fn, ev.fn1, ev.arg, ev.dead = t, pt, e.seq, fn, fn1, arg, false
	} else {
		ev = &event{time: t, pt: pt, seq: e.seq, fn: fn, fn1: fn1, arg: arg}
	}
	if e.rec != nil {
		e.rec.Ops = append(e.rec.Ops, SchedOp{Kind: SchedPush, Time: t})
	}
	e.sched.push(ev)
	if e.headOK && (e.head == nil || evLess(ev, e.head)) {
		e.head = ev
	}
	if e.depth++; e.depth > e.depthMax {
		e.depthMax = e.depth
	}
	return Timer{ev: ev, gen: ev.gen}
}

// release recycles a popped event. Bumping the generation invalidates
// every Timer that still points at it, so a stale Cancel cannot kill an
// unrelated future scheduling.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn, ev.fn1, ev.arg = nil, nil, nil
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// After schedules fn after delay d (clamped to be non-negative).
func (e *Engine) After(d float64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AfterFunc schedules fn(arg) after delay d (clamped to be
// non-negative); see AtFunc for why this exists alongside After.
func (e *Engine) AfterFunc(d float64, fn func(arg any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtFunc(e.now+d, fn, arg)
}

// fire runs a just-dequeued event, or discards it if it was cancelled,
// and reports which. The scheduler is not consulted: every run loop
// below pays it one peek and one pop per calendar event and nothing
// else.
func (e *Engine) fire(ev *event) bool {
	e.depth--
	if e.rec != nil {
		e.rec.Ops = append(e.rec.Ops, SchedOp{Kind: SchedPop})
	}
	if ev.dead {
		e.cancelled++
		e.release(ev)
		return false
	}
	e.now = ev.time
	e.curPt = ev.pt
	e.nRun++
	fn, fn1, arg := ev.fn, ev.fn1, ev.arg
	e.release(ev) // safe before fn: generation bump detaches all Timers
	if fn1 != nil {
		fn1(arg)
	} else {
		fn()
	}
	return true
}

// next returns the least pending entry: the calendar's head ev, or,
// when l is non-nil, the head of delay line l, which sorts before it.
// Both nil means nothing is pending.
func (e *Engine) next() (ev *event, l *delayLine) {
	if !e.headOK {
		e.head, e.headOK = e.sched.peek(), true
	}
	ev = e.head
	if l = e.minLine; l != nil && (ev == nil || l.before(ev.time, ev.pt, ev.seq)) {
		return nil, l
	}
	return ev, nil
}

// Step runs the next pending event. It reports false when no events remain.
func (e *Engine) Step() bool {
	for {
		ev, l := e.next()
		if l != nil {
			e.fireLine(l)
			return true
		}
		if ev == nil {
			return false
		}
		e.sched.pop()
		e.headOK = false
		if e.fire(ev) {
			return true
		}
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Dead (cancelled) events encountered at the head of the queue are
// released even when they lie beyond t, so a burst of cancelled timers
// ahead of the horizon does not linger across calls.
func (e *Engine) RunUntil(t float64) {
	e.runTo(t)
	if t > e.now {
		e.now = t
	}
}

// RunBelow executes events with time strictly less than t. Unlike
// RunUntil it neither advances the clock to t nor touches events at
// exactly t: an event sitting precisely on t stays queued. This is the
// windowed-execution primitive of the sharded runner — a conservative
// window [lo, hi) owns only the events below its horizon, and an event
// exactly on the horizon belongs to the next window, after the barrier
// has delivered any cross-shard packets that share its timestamp.
// Dead (cancelled) events at the head are released even beyond t,
// matching RunUntil.
func (e *Engine) RunBelow(t float64) {
	e.runTo(math.Nextafter(t, math.Inf(-1))) // below t is at or below the float before it
}

// runTo executes events with time <= t in (time, pt, seq) order across
// the calendar and the delay lines, releasing dead events that reach
// the head whatever their time.
func (e *Engine) runTo(t float64) {
	for {
		ev, l := e.next()
		if l != nil {
			if l.time > t {
				return
			}
			e.fireLine(l)
			continue
		}
		if ev == nil || !ev.dead && ev.time > t {
			return
		}
		e.sched.pop()
		e.headOK = false
		e.fire(ev)
	}
}

// Run drains the event queue completely.
func (e *Engine) Run() {
	for e.Step() {
	}
}
