// Package seqwin is the outstanding-packet window under transport.Base,
// and so under every rate-based backend: which sequences are sent and
// not yet acknowledged or declared lost, when each was sent, what the
// sender tagged it with (the flow driver's seq -> layer attribution),
// and the two loss scans (reorder gap, timeout) Base runs over that set.
// Its RTT is the one round-trip estimator, Base's and the Sack-TCP
// model's, with the timeout the scan runs on.
//
// Slots live in a power-of-two ring indexed by seq & mask, with a
// base below which nothing is outstanding. Send, Ack and GapLost are
// O(1) amortised: base only moves forward, so all GapLost calls
// together visit each sequence once. After GapLost nothing outstanding
// is below ackEnd-gap, so a sender that calls it after every Ack keeps
// the live span to the packets in flight plus the gap. TimedOut walks
// the live span once; callers run it once per SRTT. The ring doubles
// when the span outgrows it and never shrinks.
package seqwin

import "math"

// minSlots is the first ring size. Small on purpose: a server holds one
// window per session, and most sessions keep a handful of packets in
// flight.
const minSlots = 16

// Window tracks outstanding sequences 0, 1, 2, ... in send order. The
// zero value is an empty window ready for use. Not goroutine-safe.
type Window struct {
	slots  []slot // sequence seq lives at slots[seq&mask]
	mask   int64
	base   int64 // no sequence below base is outstanding
	next   int64 // sequence the next Send assigns
	ackEnd int64 // one past the highest sequence acknowledged
	n      int   // outstanding count
}

type slot struct {
	sentAt float64 // NaN = not outstanding
	tag    int32   // caller's label; meaningless once sentAt is NaN
}

// Reset empties w for a new flow: the next Send assigns sequence 0 and
// nothing is outstanding or acknowledged. The ring is kept, every slot
// marked not outstanding, so a recycled window sends without
// allocating.
func (w *Window) Reset() {
	for i := range w.slots {
		w.slots[i] = slot{sentAt: math.NaN()}
	}
	w.base, w.next, w.ackEnd, w.n = 0, 0, 0, 0
}

// Len returns the number of outstanding sequences.
func (w *Window) Len() int { return w.n }

// Send records the next sequence as sent at now, with tag 0, and
// returns it. now must not be NaN.
func (w *Window) Send(now float64) int64 {
	seq := w.next
	if seq-w.base >= int64(len(w.slots)) {
		w.grow()
	}
	w.slots[seq&w.mask] = slot{sentAt: now}
	w.next++
	w.n++
	return seq
}

// SetTag labels seq, if it is outstanding, with tag: Ack hands the label
// back, and a sequence that leaves the window by loss takes it along.
func (w *Window) SetTag(seq int64, tag int32) {
	if seq < w.base || seq >= w.next {
		return
	}
	if s := &w.slots[seq&w.mask]; !math.IsNaN(s.sentAt) {
		s.tag = tag
	}
}

// grow makes room for one more sequence: it first slides base over
// leading slots that are no longer outstanding, and doubles the ring
// only if the live span still fills it.
func (w *Window) grow() {
	for w.base < w.next && math.IsNaN(w.slots[w.base&w.mask].sentAt) {
		w.base++
	}
	if w.next-w.base < int64(len(w.slots)) {
		return
	}
	size := 2 * len(w.slots)
	if size == 0 {
		size = minSlots
	}
	fresh := make([]slot, size)
	for i := range fresh {
		fresh[i].sentAt = math.NaN()
	}
	mask := int64(size - 1)
	for seq := w.base; seq < w.next; seq++ {
		fresh[seq&mask] = w.slots[seq&w.mask]
	}
	w.slots, w.mask = fresh, mask
}

// Ack acknowledges seq. It returns seq's send time, its tag and true if
// seq was outstanding (and no longer is); zeros and false for a
// duplicate, for a sequence already declared lost, and for a sequence
// never sent. Only a sequence that was sent can raise the
// highest-acknowledged mark GapLost works from: an ACK from the wire for
// a sequence outside [0, next) must not condemn the whole window.
func (w *Window) Ack(seq int64) (sentAt float64, tag int32, ok bool) {
	if seq < 0 || seq >= w.next {
		return 0, 0, false
	}
	if seq >= w.ackEnd {
		w.ackEnd = seq + 1
	}
	if seq < w.base {
		return 0, 0, false
	}
	s := &w.slots[seq&w.mask]
	if math.IsNaN(s.sentAt) {
		return 0, 0, false
	}
	sentAt = s.sentAt
	s.sentAt = math.NaN()
	w.n--
	return sentAt, s.tag, true
}

// GapLost removes every outstanding sequence that trails the highest
// acknowledged one by at least gap and appends them to dst in ascending
// order.
func (w *Window) GapLost(dst []int64, gap int64) []int64 {
	for end := w.ackEnd - gap; w.base < end; w.base++ {
		if s := &w.slots[w.base&w.mask]; !math.IsNaN(s.sentAt) {
			dst = append(dst, w.base)
			s.sentAt = math.NaN()
			w.n--
		}
	}
	return dst
}

// TimedOut removes every outstanding sequence sent more than timeout
// before now and appends them to dst in ascending order. Send times
// need not rise with sequence, so it visits the whole live span.
func (w *Window) TimedOut(dst []int64, now, timeout float64) []int64 {
	first := w.next // lowest sequence still outstanding afterwards
	for seq := w.base; seq < w.next && w.n > 0; seq++ {
		s := &w.slots[seq&w.mask]
		switch {
		case math.IsNaN(s.sentAt):
		case now-s.sentAt > timeout:
			dst = append(dst, seq)
			s.sentAt = math.NaN()
			w.n--
		case first == w.next:
			first = seq
		}
	}
	w.base = first
	return dst
}

// MinRTO is TCP's 20 ms floor under a sampled RTO, seconds: below it a
// sub-millisecond path times out on ACKs a few milliseconds late.
const MinRTO = 0.02

// RTT is the RFC 6298 estimator: the first sample sets SRTT and RTTVAR
// = sample/2, later ones move them by gains 1/8 and 1/4, and the RTO is
// max(SRTT + 4·RTTVAR, 2·SRTT, MinRTO). Not goroutine-safe.
type RTT struct {
	srtt, rttvar, rto float64
	sampled           bool
}

// NewRTT seeds an RTT: SRTT = initial, RTTVAR = initial/2, RTO = 3·initial.
func NewRTT(initial float64) RTT { return RTT{srtt: initial, rttvar: initial / 2, rto: 3 * initial} }

// SRTT returns the smoothed RTT, seconds.
func (e *RTT) SRTT() float64 { return e.srtt }

// RTO returns the retransmission timeout, seconds.
func (e *RTT) RTO() float64 { return e.rto }

// Sample folds a measured RTT into the estimate and reports whether it
// did: a non-positive sample is ignored.
func (e *RTT) Sample(sample float64) bool {
	if sample <= 0 {
		return false
	}
	if !e.sampled {
		e.srtt, e.rttvar, e.sampled = sample, sample/2, true
	} else {
		const alpha, beta = 1.0 / 8.0, 1.0 / 4.0
		e.rttvar = (1-beta)*e.rttvar + beta*math.Abs(e.srtt-sample)
		e.srtt = (1-alpha)*e.srtt + alpha*sample
	}
	e.rto = max(e.srtt+4*e.rttvar, 2*e.srtt, MinRTO)
	return true
}
