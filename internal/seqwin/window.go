// Package seqwin is the outstanding-packet window under transport.Base,
// and so under every rate-based backend: which sequences are sent and
// not yet acknowledged or declared lost, when each was sent, and the two
// loss scans (reorder gap, timeout) Base runs over that set.
//
// Send times live in a power-of-two ring indexed by seq & mask, with a
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
	sentAt []float64 // send time at slot seq & mask; NaN = not outstanding
	mask   int64
	base   int64 // no sequence below base is outstanding
	next   int64 // sequence the next Send assigns
	ackEnd int64 // one past the highest sequence acknowledged
	n      int   // outstanding count
}

// Len returns the number of outstanding sequences.
func (w *Window) Len() int { return w.n }

// Send records the next sequence as sent at now and returns it. now
// must not be NaN.
func (w *Window) Send(now float64) int64 {
	seq := w.next
	if seq-w.base >= int64(len(w.sentAt)) {
		w.grow()
	}
	w.sentAt[seq&w.mask] = now
	w.next++
	w.n++
	return seq
}

// grow makes room for one more sequence: it first slides base over
// leading slots that are no longer outstanding, and doubles the ring
// only if the live span still fills it.
func (w *Window) grow() {
	for w.base < w.next && math.IsNaN(w.sentAt[w.base&w.mask]) {
		w.base++
	}
	if w.next-w.base < int64(len(w.sentAt)) {
		return
	}
	size := 2 * len(w.sentAt)
	if size == 0 {
		size = minSlots
	}
	fresh := make([]float64, size)
	for i := range fresh {
		fresh[i] = math.NaN()
	}
	mask := int64(size - 1)
	for seq := w.base; seq < w.next; seq++ {
		fresh[seq&mask] = w.sentAt[seq&w.mask]
	}
	w.sentAt, w.mask = fresh, mask
}

// Ack acknowledges seq. It returns seq's send time and true if seq was
// outstanding (and no longer is); false for a duplicate, for a sequence
// already declared lost, and for a sequence never sent. Only a sequence
// that was sent can raise the highest-acknowledged mark GapLost works
// from: an ACK from the wire for a sequence outside [0, next) must not
// condemn the whole window.
func (w *Window) Ack(seq int64) (sentAt float64, ok bool) {
	if seq < 0 || seq >= w.next {
		return 0, false
	}
	if seq >= w.ackEnd {
		w.ackEnd = seq + 1
	}
	if seq < w.base {
		return 0, false
	}
	i := seq & w.mask
	sentAt = w.sentAt[i]
	if math.IsNaN(sentAt) {
		return 0, false
	}
	w.sentAt[i] = math.NaN()
	w.n--
	return sentAt, true
}

// GapLost removes every outstanding sequence that trails the highest
// acknowledged one by at least gap and appends them to dst in ascending
// order.
func (w *Window) GapLost(dst []int64, gap int64) []int64 {
	for end := w.ackEnd - gap; w.base < end; w.base++ {
		i := w.base & w.mask
		if !math.IsNaN(w.sentAt[i]) {
			dst = append(dst, w.base)
			w.sentAt[i] = math.NaN()
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
		i := seq & w.mask
		t := w.sentAt[i]
		switch {
		case math.IsNaN(t):
		case now-t > timeout:
			dst = append(dst, seq)
			w.sentAt[i] = math.NaN()
			w.n--
		case first == w.next:
			first = seq
		}
	}
	w.base = first
	return dst
}
