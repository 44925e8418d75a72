package sim

import "fmt"

// ring is the package's one growable FIFO ring: the bottleneck queues
// hold their packets in one (fifo) and every delay line its pending
// hops. The capacity is always a power of two, so wrap-around is a
// mask, not a divide, and pop advances the head instead of reslicing
// from the front, so a long-lived ring reuses one backing array.
type ring[T any] struct {
	buf  []T
	mask int // len(buf)-1
	head int // index of the oldest element
	n    int
}

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&r.mask] = v
	r.n++
}

// grow doubles the full ring, unwrapping it to the front.
func (r *ring[T]) grow() {
	next := make([]T, max(8, 2*len(r.buf)))
	n := copy(next, r.buf[r.head:])
	copy(next[n:], r.buf[:r.head])
	r.buf, r.mask, r.head = next, len(next)-1, 0
}

// pop removes and returns the oldest element. The ring must not be
// empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & r.mask
	r.n--
	return v
}

// hop is one packet pending on a delay line, with its event key.
type hop struct {
	time, pt float64
	seq      uint64
	p        *Packet
}

// delayLine is a stream of packet hops that leave in the order they
// entered: a constant-delay hop (the dumbbell's access and reverse
// paths), the link's deliveries (serialization finish plus a constant
// propagation delay, and the finish never decreases) and the link's
// serialization slot (at most one pending). Such a stream needs no
// sorted structure: its keys never decrease, so it is a FIFO, and the
// engine merges the lines' heads with the calendar's by evLess (see
// Engine.next). A push takes the engine's next seq, so a hop fires
// exactly where the event it replaces would have. One callback serves
// the whole line.
//
// The head's key is cached in the line itself, so the merge compares
// without touching the ring.
type delayLine struct {
	time, pt float64 // the head's key while the line is non-empty
	seq      uint64
	eng      *Engine
	fn       func(*Packet)
	q        ring[hop]
	lastT    float64 // key of the newest hop: a push may not go below it
	lastPt   float64
}

// newLine returns an empty line on e whose hops fire fn.
func (e *Engine) newLine(fn func(*Packet)) *delayLine {
	l := &delayLine{eng: e, fn: fn}
	e.lines = append(e.lines, l)
	return l
}

// after sends p down the line to arrive d from now (d >= 0).
func (l *delayLine) after(d float64, p *Packet) {
	now := l.eng.now
	l.push(now+d, now, p)
}

// push queues p to fire at t with the scheduling-time tie key pt (see
// Engine.AtFuncPrio). Keys must not decrease along a line, nor lie in
// the engine's past: either would break the merge's order, so it
// panics.
func (l *delayLine) push(t, pt float64, p *Packet) {
	e := l.eng
	if !(t > l.lastT || t == l.lastT && pt >= l.lastPt) || t < e.now {
		panic(fmt.Sprintf("sim: delay line push at (%.9f, %.9f) behind (%.9f, %.9f) or now %.9f",
			t, pt, l.lastT, l.lastPt, e.now))
	}
	l.lastT, l.lastPt = t, pt
	e.seq++
	if l.q.n == 0 {
		l.time, l.pt, l.seq = t, pt, e.seq
		if m := e.minLine; m == nil || l.before(m.time, m.pt, m.seq) {
			e.minLine = l
		}
	}
	l.q.push(hop{t, pt, e.seq, p})
}

// before reports whether l's head fires before an entry keyed
// (time, pt, seq): evLess on the cached head.
func (l *delayLine) before(time, pt float64, seq uint64) bool {
	if l.time != time {
		return l.time < time
	}
	if l.pt != pt {
		return l.pt < pt
	}
	return l.seq < seq
}

// fireLine runs the head hop of l, the least pending entry.
func (e *Engine) fireLine(l *delayLine) {
	h := l.q.pop()
	if l.q.n > 0 {
		n := &l.q.buf[l.q.head]
		l.time, l.pt, l.seq = n.time, n.pt, n.seq
	}
	var m *delayLine
	for _, o := range e.lines {
		if o.q.n > 0 && (m == nil || o.before(m.time, m.pt, m.seq)) {
			m = o
		}
	}
	e.minLine = m
	e.now = h.time
	e.nRun++
	l.fn(h.p)
}
