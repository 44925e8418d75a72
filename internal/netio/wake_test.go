package netio

import "testing"

// The wake policy is driven here on synthetic (dt, events) sequences:
// no clock, no socket. One "tick" below is a loop iteration one wheel
// tick long.

// runTicks feeds n one-tick iterations of `events` each and reports the
// mode after every one.
func runTicks(p *wakePolicy, n, events int) (modes []bool) {
	for i := 0; i < n; i++ {
		modes = append(modes, p.observe(wheelTickSec, events))
	}
	return modes
}

func TestWakePolicyIdleNeverCoalesces(t *testing.T) {
	var p wakePolicy
	// An idle shard wakes every idleSweepSec with nothing to do.
	for i := 0; i < 10_000; i++ {
		if p.observe(idleSweepSec, 0) {
			t.Fatalf("idle shard switched to tick mode at sweep %d (rate %.3f)", i, p.rate)
		}
	}
	// A light load — a few hundred packets a second, one event per
	// 2 ms wake — stays arrival-driven however long it lasts.
	for i := 0; i < 100_000; i++ {
		if p.observe(0.002, 1) {
			t.Fatalf("0.5 events/tick switched to tick mode at wake %d (rate %.3f)", i, p.rate)
		}
	}
}

func TestWakePolicyNeedsSustainedLoad(t *testing.T) {
	var p wakePolicy
	// One burst from idle — a full readBurst of datagrams and a full
	// round of sends in a single zero-length iteration — is not load.
	if p.observe(0, 2*readBurst) {
		t.Fatalf("a single burst switched an idle shard to tick mode (rate %.3f)", p.rate)
	}
	// The same burst once per idle sweep is not sustained either.
	for i := 0; i < 1000; i++ {
		if p.observe(idleSweepSec, 2*readBurst) {
			t.Fatalf("one burst per sweep (%.1f events/tick) switched modes at sweep %d",
				2*readBurst*wheelTickSec/idleSweepSec, i)
		}
	}

	// 64 events per tick (1000 viewers at 32 packets/s, data plus ACKs)
	// must switch — but only after several ticks, and within 100 ms.
	p = wakePolicy{}
	modes := runTicks(&p, 100, 64)
	first := -1
	for i, m := range modes {
		if m {
			first = i
			break
		}
	}
	if first < 5 || first > 95 {
		t.Fatalf("64 events/tick entered tick mode after %d ticks, want sustained (>= 5) but prompt (<= 95)", first)
	}
	for i := first; i < len(modes); i++ {
		if !modes[i] {
			t.Fatalf("left tick mode at tick %d while the load held", i)
		}
	}
}

func TestWakePolicyHysteresis(t *testing.T) {
	var p wakePolicy
	runTicks(&p, 2000, 64)
	if !p.coalesce {
		t.Fatal("sustained 64 events/tick did not enter tick mode")
	}
	// Between the thresholds the mode holds, whichever it is.
	for i, m := range runTicks(&p, 5000, 6) {
		if !m {
			t.Fatalf("left tick mode at tick %d under 6 events/tick (off threshold %v, rate %.3f)", i, wakeOffRate, p.rate)
		}
	}
	// Below the off threshold it leaves — after the average has decayed,
	// not on the first quiet tick.
	modes := runTicks(&p, 2000, 2)
	if !modes[0] {
		t.Fatal("left tick mode on the first quiet tick: no averaging")
	}
	if modes[len(modes)-1] {
		t.Fatalf("still in tick mode after 2000 ticks at 2 events/tick (rate %.3f)", p.rate)
	}
	// And 6 events/tick, which held tick mode above, does not re-enter it.
	for i, m := range runTicks(&p, 5000, 6) {
		if m {
			t.Fatalf("re-entered tick mode at tick %d under 6 events/tick (on threshold %v)", i, wakeOnRate)
		}
	}
	// Load gone entirely: the tick-driven loop itself winds down.
	runTicks(&p, 2000, 64)
	if !p.coalesce {
		t.Fatal("did not re-enter tick mode")
	}
	left := -1
	for i, m := range runTicks(&p, 1000, 0) {
		if !m {
			left = i
			break
		}
	}
	if left < 0 || float64(left)*wheelTickSec > 1 {
		t.Fatalf("silence after load: left tick mode at tick %d, want within a second", left)
	}
}
