package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []float64
	times := []float64{0.5, 0.1, 0.9, 0.3, 0.3, 0.7}
	for _, at := range times {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events ran out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("ran %d events, want %d", len(got), len(times))
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine()
	e.At(2.5, func() {
		if e.Now() != 2.5 {
			t.Errorf("Now() = %v inside event at 2.5", e.Now())
		}
	})
	e.Run()
	if e.Now() != 2.5 {
		t.Fatalf("final Now() = %v, want 2.5", e.Now())
	}
}

func TestEngineSchedulingInsideEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(0.1, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if count != 5 {
		t.Fatalf("recursive scheduling ran %d times, want 5", count)
	}
	if math.Abs(e.Now()-0.4) > 1e-12 {
		t.Fatalf("Now() = %v, want 0.4", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0.5, func() {})
	})
	e.Run()
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	tm := e.At(1, func() { ran = true })
	tm.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled timer still ran")
	}
}

func TestTimerZeroValue(t *testing.T) {
	var tm Timer
	tm.Cancel() // must not panic
	if tm.Active() {
		t.Fatal("zero Timer reports active")
	}
}

func TestTimerActiveLifecycle(t *testing.T) {
	e := NewEngine()
	tm := e.At(1, func() {})
	if !tm.Active() {
		t.Fatal("pending timer not active")
	}
	e.Run()
	if tm.Active() {
		t.Fatal("fired timer still active")
	}
	tm.Cancel() // cancel after fire: must be a no-op, not corrupt state
	tm2 := e.At(2, func() {})
	tm2.Cancel()
	if tm2.Active() {
		t.Fatal("cancelled timer still active")
	}
}

// A Timer whose event fired and was recycled into a later scheduling must
// not be able to cancel (or observe) the new event.
func TestTimerCancelAfterFireDoesNotKillRecycledEvent(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	e.Run() // fires; the event goes back to the free list
	ran := false
	fresh := e.At(2, func() { ran = true })
	stale.Cancel() // stale handle: recycled event must be untouched
	if stale.Active() {
		t.Fatal("stale timer reports active after recycle")
	}
	if !fresh.Active() {
		t.Fatal("fresh timer lost its pending state")
	}
	e.Run()
	if !ran {
		t.Fatal("stale Cancel killed a recycled event")
	}
}

// Steady-state scheduling must reuse events from the free list rather
// than allocating one per callback.
func TestEngineEventFreeList(t *testing.T) {
	e := NewEngine()
	e.At(0, func() {}) // prime the free list
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(0.001, func() {})
		e.Step()
	})
	// One closure may still allocate; the event itself must not.
	if allocs > 1 {
		t.Fatalf("%.1f allocs per schedule+step; event free list not reusing", allocs)
	}
}

func TestEngineAtFuncPassesArgument(t *testing.T) {
	e := NewEngine()
	type payload struct{ n int }
	var got []*payload
	collect := func(arg any) { p, _ := arg.(*payload); got = append(got, p) }
	a, b := &payload{1}, &payload{2}
	e.AtFunc(2, collect, b)
	e.AtFunc(1, collect, a)
	e.AfterFunc(-1, collect, nil) // clamps to now, like After
	e.Run()
	if len(got) != 3 || got[0] != nil || got[1] != a || got[2] != b {
		t.Fatalf("AtFunc delivered %v, want [nil a b]", got)
	}
}

// Scheduling through AtFunc with a long-lived callback and a pointer
// argument must not allocate once the free list is primed — this is the
// contract the link and network hot paths rely on.
func TestAllocFreeAtFuncScheduling(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	e.AtFunc(0, nop, nil) // prime the free list
	e.Run()
	p := &Packet{}
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterFunc(0.001, nop, p)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per AtFunc schedule+step, want 0", allocs)
	}
}

// A transient event burst must not pin its high-water mark of recycled
// events forever: the free list is capped.
func TestEngineFreeListCapped(t *testing.T) {
	e := NewEngine()
	n := maxFreeEvents + 1000
	for i := 0; i < n; i++ {
		e.At(1, func() {})
	}
	e.Run()
	if len(e.free) > maxFreeEvents {
		t.Fatalf("free list holds %d events after a %d-event burst, cap is %d",
			len(e.free), n, maxFreeEvents)
	}
}

// Cancelled events beyond the RunUntil horizon must be released during
// the peek, not left to age in the heap across calls.
func TestRunUntilReleasesDeadEventsBeyondHorizon(t *testing.T) {
	e := NewEngine()
	var tms []Timer
	for i := 0; i < 100; i++ {
		tms = append(tms, e.At(10, func() {}))
	}
	for _, tm := range tms {
		tm.Cancel()
	}
	free := len(e.free)
	e.RunUntil(1) // horizon well before the cancelled batch at t=10
	if e.sched.len() != 0 {
		t.Fatalf("%d dead events still queued after RunUntil", e.sched.len())
	}
	if len(e.free) != free+100 {
		t.Fatalf("free list grew by %d, want 100", len(e.free)-free)
	}
	if e.Now() != 1 {
		t.Fatalf("Now() = %v, want 1", e.Now())
	}
}

func TestRunUntilStopsAndAdvancesClock(t *testing.T) {
	e := NewEngine()
	var ran []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(2.5)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(2.5) ran %d events, want 2", len(ran))
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now() = %v, want 2.5", e.Now())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("Run after RunUntil ran %d total, want 4", len(ran))
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(-1, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("After(-1) ran=%v now=%v", ran, e.Now())
	}
}

// Property: any batch of events runs in non-decreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		var got []float64
		for _, r := range raw {
			at := float64(r) / 100
			e.At(at, func() { got = append(got, at) })
		}
		e.Run()
		return sort.Float64sAreSorted(got) && len(got) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A delay line is a FIFO only while its keys never decrease: a push
// behind the newest hop's (time, pt), or behind the clock, must panic
// rather than fire out of order. Equal keys are in order (seq breaks
// the tie).
func TestDelayLinePushOutOfOrderPanics(t *testing.T) {
	e := NewEngine()
	l := e.newLine(func(*Packet) {})
	l.push(2, 1, nil)
	l.push(2, 1, nil)
	for _, k := range []struct{ t, pt float64 }{{1.5, 1}, {2, 0.5}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push at (%v, %v) behind (2, 1) did not panic", k.t, k.pt)
				}
			}()
			l.push(k.t, k.pt, nil)
		}()
	}
	e.Run()
	o := e.newLine(func(*Packet) {})
	defer func() {
		if recover() == nil {
			t.Error("push into an empty line behind the clock did not panic")
		}
	}()
	o.push(1, 0, nil)
}
