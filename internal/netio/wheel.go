package netio

import "math"

// This file is the O(due) pacing engine for the multi-client serving
// path: a two-level hierarchical timing wheel over the shard's sessions.
//
// Motivation. A pump that walks every connected session on every wakeup
// to find the few whose NextSend is due costs a shard O(population) even
// when almost all of it is idle. The wheel schedules each session at its
// next wake instant — min(NextSend, deadline, idle expiry) — and a
// wakeup advances the wheel position and touches only the sessions
// whose slots fire: O(due), not O(connected).
//
// Layout. Time is quantized to ticks of 2^20 ns (~1.05 ms). Level 0 is
// 256 one-tick slots (~269 ms of horizon); level 1 is 256 slots of 256
// ticks each (~69 s). A session at absolute tick T lives in level-0
// slot T&255 when T is within 255 ticks of the position, else in
// level-1 slot (T>>8)&255; ticks beyond the two-level span are clamped
// to the last reachable slot and simply re-examined when it fires (the
// service pass recomputes the true wake instant and re-files, so a
// multi-minute idle timer costs one touch per ~69 s). When the
// position crosses a 256-tick boundary, the matching level-1 slot
// cascades down into level 0. All slot lists are doubly linked through
// the session structs themselves — scheduling, firing, and cancelling
// never allocate.
//
// Precision. Sessions are filed at floor(wake/tick), so a slot fires
// at or before the exact float64 wake instant. Fired sessions whose
// instant lies inside the current tick wait on the imminent list,
// which the pump re-checks against the exact float64 conditions every
// call — the wheel never sends early and never quantizes a pacing
// decision, which is what makes it decide identically to the
// walk-every-session pump it replaced (scanPump in wheel_test.go, the
// reference of TestPacerDifferentialRandomized).

const (
	// wheelTickShift sets the tick length: 2^20 ns ≈ 1.05 ms.
	wheelTickShift = 20
	// wheelTickSec is one tick in seconds.
	wheelTickSec = float64(int64(1)<<wheelTickShift) / 1e9
	wheelBits    = 8
	wheelSlots   = 1 << wheelBits // 256 slots per level
	wheelMask    = wheelSlots - 1
	// wheelSpanTicks is the horizon both levels cover together.
	wheelSpanTicks = wheelSlots * wheelSlots

	// wheelNone marks a session not queued anywhere; wheelImminent
	// marks one on the fired-but-not-yet-due list. Slots 0..255 are
	// level 0; 256..511 are level 1 (offset by wheelSlots).
	wheelNone     int32 = -1
	wheelImminent int32 = -2
)

// wheelTick converts a float64-seconds instant to an absolute tick.
func wheelTick(t float64) int64 {
	return int64(t*1e9) >> wheelTickShift
}

// wheelTickStart is the instant tick t begins.
func wheelTickStart(t int64) float64 {
	return float64(t<<wheelTickShift) / 1e9
}

// timingWheel is the two-level wheel. Single-owner (one shard
// goroutine); all operations are allocation-free.
type timingWheel struct {
	l0, l1 [wheelSlots]*session
	cur    int64 // wheel position: the last tick already fired
	n      int   // sessions resident in l0+l1 (imminent excluded)

	// imminent holds fired sessions whose exact wake instant is inside
	// the current tick (or that are backlogged past the batch budget);
	// the pump scans it with exact float64 checks every call.
	imminent *session

	cascades uint64 // level-1 -> level-0 slot migrations
}

// headOf returns the list head cell for a slot code.
func (w *timingWheel) headOf(slot int32) **session {
	switch {
	case slot == wheelImminent:
		return &w.imminent
	case slot < wheelSlots:
		return &w.l0[slot]
	default:
		return &w.l1[slot-wheelSlots]
	}
}

// push links st at the head of slot's list.
func (w *timingWheel) push(st *session, slot int32) {
	h := w.headOf(slot)
	st.wslot = slot
	st.wprev = nil
	st.wnext = *h
	if *h != nil {
		(*h).wprev = st
	}
	*h = st
	if slot != wheelImminent {
		w.n++
	}
}

// unlink removes st from whichever list holds it. Idempotent.
func (w *timingWheel) unlink(st *session) {
	if st.wslot == wheelNone {
		return
	}
	if st.wprev != nil {
		st.wprev.wnext = st.wnext
	} else {
		*w.headOf(st.wslot) = st.wnext
	}
	if st.wnext != nil {
		st.wnext.wprev = st.wprev
	}
	if st.wslot != wheelImminent {
		w.n--
	}
	st.wslot, st.wnext, st.wprev = wheelNone, nil, nil
}

// schedule files st at absolute tick. Ticks at or behind the position
// are clamped one tick ahead (they fire on the next advance); ticks
// beyond the span are clamped to the last slot whose epoch has not yet
// cascaded, so a far-future timer is revisited once per span rather
// than lost to level-1 slot aliasing.
func (w *timingWheel) schedule(st *session, tick int64) {
	if tick <= w.cur {
		tick = w.cur + 1
	}
	if max := (w.cur &^ int64(wheelMask)) + wheelSpanTicks - 1; tick > max {
		tick = max
	}
	st.wtick = tick
	if tick-w.cur < wheelSlots {
		w.push(st, int32(tick&wheelMask))
	} else {
		w.push(st, wheelSlots+int32((tick>>wheelBits)&wheelMask))
	}
}

// place files st by its exact wake instant: already-due (or
// current-tick) wakes go straight to the imminent list so no session
// ever waits a tick it does not owe, everything else is scheduled.
func (w *timingWheel) place(st *session, wake float64) {
	if t := wheelTick(wake); t > w.cur {
		w.schedule(st, t)
	} else {
		w.push(st, wheelImminent)
	}
}

// advance moves the position to tick `to`, cascading level-1 slots at
// epoch boundaries and moving every fired slot onto the imminent list.
// Work is proportional to ticks crossed plus sessions fired; an empty
// wheel jumps in O(1).
func (w *timingWheel) advance(to int64) {
	if to <= w.cur {
		return
	}
	if w.n == 0 {
		w.cur = to
		return
	}
	if to-w.cur >= wheelSpanTicks {
		// Everything scheduled lies at or behind `to`: fire it all.
		for i := range w.l0 {
			w.fireSlot(&w.l0[i])
		}
		for i := range w.l1 {
			w.fireSlot(&w.l1[i])
		}
		w.cur = to
		return
	}
	for w.cur < to {
		w.cur++
		if w.cur&wheelMask == 0 {
			w.cascade(int((w.cur >> wheelBits) & wheelMask))
		}
		if w.l0[w.cur&wheelMask] != nil {
			w.fireSlot(&w.l0[w.cur&wheelMask])
		}
		if w.n == 0 {
			w.cur = to
			return
		}
	}
}

// fireSlot moves a whole slot list onto the imminent list.
func (w *timingWheel) fireSlot(h **session) {
	for *h != nil {
		st := *h
		w.unlink(st)
		w.push(st, wheelImminent)
	}
}

// cascade redistributes a level-1 slot into level 0. At the boundary
// tick B every session in the slot has wtick in [B, B+255], so each
// lands in the level-0 slot that fires at exactly its tick (a session
// at tick B lands in the slot advance fires immediately after).
func (w *timingWheel) cascade(slot int) {
	for h := &w.l1[slot]; *h != nil; {
		st := *h
		w.unlink(st)
		w.cascades++
		w.push(st, int32(st.wtick&wheelMask))
	}
}

// wheelScanSlots bounds the nextWake lookahead. It only needs to cover
// the idle-sweep sleep cap (~48 ticks): anything farther is reached by
// the periodic sweep wakeup before it could fire anyway.
const wheelScanSlots = 64

// nextWake returns the start instant of the nearest scheduled level-0
// tick within the lookahead, or +Inf (the caller caps the sleep at
// idleSweepSec, which also covers level-1 residents and the rare
// pre-cascade epoch boundary).
func (w *timingWheel) nextWake() float64 {
	if w.n == 0 {
		return math.Inf(1)
	}
	for d := int64(1); d <= wheelScanSlots; d++ {
		t := w.cur + d
		if t&wheelMask == 0 {
			break // next epoch cascades first; the sweep gets there
		}
		if w.l0[t&wheelMask] != nil {
			return wheelTickStart(t)
		}
	}
	return math.Inf(1)
}
