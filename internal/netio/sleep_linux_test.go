//go:build linux

package netio

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestTickSleepKeepsP holds tickSleep to its trade with one P, where it
// shows most: the sleep keeps the P (no hand-off to a spare thread each
// tick), and the one yield per tick still lets a GC finish and a
// goroutine woken meanwhile run at the next tick.
func TestTickSleepKeepsP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tick := time.Duration(wheelTickSec * float64(time.Second))
	const ticks = 90

	// (a) Alone: a tick costs the sleep's own switch and no hand-off.
	// The warm-up lets sysmon back off from its start-up polling.
	for range 20 {
		tickSleep(tick)
	}
	before := ctxSwitches(t)
	for range ticks {
		tickSleep(tick)
	}
	perTick := float64(ctxSwitches(t)-before) / ticks
	t.Logf("%.2f context switches per tick", perTick)
	if perTick >= 2 {
		t.Errorf("%.2f context switches per tick, want < 2: the sleep hands its P off", perTick)
	}

	// (b) A GC cycle beside the loop gets the P at the yields. Its end
	// (mark termination) is the bound: runtime.GC's caller then sweeps
	// one span per yield, a time that grows with whatever heap earlier
	// tests left.
	cycles := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(cycles)
	gcBefore := cycles[0].Value.Uint64()
	start := time.Now()
	gcTook := make(chan time.Duration, 1)
	go func() {
		runtime.GC()
		gcTook <- time.Since(start)
	}()
	cycleTook := time.Duration(-1)
	for range ticks {
		tickSleep(tick)
		if rtmetrics.Read(cycles); cycles[0].Value.Uint64() > gcBefore {
			cycleTook = time.Since(start)
			break
		}
	}
	select {
	case d := <-gcTook:
		t.Logf("GC cycle done after %v, runtime.GC returned after %v", cycleTook, d)
	case <-time.After(5 * time.Second):
		t.Fatal("runtime.GC beside the loop did not return")
	}
	if cycleTook < 0 || cycleTook > 50*time.Millisecond {
		t.Errorf("GC cycle beside the loop took %v (-1: not within %d ticks), want <= 50ms", cycleTook, ticks)
	}

	// (c) So does a goroutine woken by a channel, at the next tick.
	var iter atomic.Int64
	wake, ranAt := make(chan struct{}), make(chan int64, 1)
	go func() {
		<-wake
		ranAt <- iter.Load()
	}()
	const wakeAt = 5
	for i := range ticks / 4 {
		if i == wakeAt {
			close(wake)
		}
		tickSleep(tick)
		iter.Add(1)
	}
	if lag := <-ranAt - wakeAt; lag > 2 {
		t.Errorf("woken goroutine ran %d ticks after its wake, want <= 2", lag)
	}
}

// ctxSwitches is the process's voluntary plus involuntary context
// switches so far, all threads.
func ctxSwitches(t *testing.T) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return ru.Nvcsw + ru.Nivcsw
}
