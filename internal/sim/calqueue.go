package sim

import "slices"

// calQueue is a self-tuning calendar queue (Brown '88), the event
// scheduler structure ns-2 uses for exactly this workload: a discrete
// event simulator whose pending events are a dense head of packet
// events plus a sparse tail of timers. A schedule is an array index and
// an insert into a short sorted list, a dequeue a scan over a bucket or
// two — while the bucket width fits the head. walk, skips and ovPushes
// count what either cost beyond that, and the queue re-tunes itself when
// they say the width no longer fits (review).
//
// Layout. An event at time t belongs to virtual bucket vb =
// floor(t/width), stored in physical bucket vb mod nbuckets as a
// singly-linked list (the *event structs carry the link, so the
// structure itself never allocates) sorted ascending by evLess. The
// position posVB advances with the popped events, and only events less
// than one year (nbuckets*width) ahead of it are in buckets, so a bucket
// holds one vb; the pop scan still compares vb exactly, as an integer,
// because a push behind the position (see push) can break that.
//
// Determinism. Pop order is exactly ascending evLess, bit-for-bit the
// order the reference binary heap produces: within a bucket the list is
// sorted, equal times land in the same virtual bucket, and vb is
// monotone in t, so scanning virtual buckets in increasing order
// enumerates the global order. TestSchedulerDifferential* and the
// recorded-trace cost tests assert it against the heap.
//
// Far-future lane. Events a year or more ahead of the position —
// retransmission timeouts, sampler ticks, scenario end markers — go to
// the overflow lane, a binary min-heap, and migrate into the calendar as
// the position catches up. Migration happens before every scan, so an
// overflow event's vb is beyond every in-calendar candidate's.
//
// Tuning (retune) sorts everything pending and reads three things off
// it. Width: calGaps mean separations of the first min(calHead, n/4)
// events in pop order — Brown's rule; nearly every insert lands among
// them, and a sample of the whole population lets the sparse tail set
// the width the dense head is bucketed with. Year: twice the span from
// the first event to the 15/16 quantile, so the lane takes the far
// sixteenth at most. Bucket count: year/width rounded up to a power of
// two, capped near 4 per event so a retune stays O(n log n). Every
// decision is a function of the operation stream alone, so tuning is
// deterministic too.
type calQueue struct {
	buckets []calBucket
	mask    int64   // len(buckets)-1; bucket count is always a power of two
	width   float64 // bucket width, seconds
	inv     float64 // 1/width: vb = int64(t*inv), monotone in t like the quotient, without the divide

	n     int     // events resident in buckets (excludes overflow)
	posVB int64   // virtual bucket of the calendar position
	posT  float64 // time anchor of the position (last popped event time)

	overflow []*event // far-future lane: min-heap in evLess order

	// cache holds the event the last peek found, with the physical
	// bucket it heads (-1: root of the overflow lane). Any push that
	// sorts before it invalidates; pop consumes it.
	cache    *event
	cacheIdx int

	// Cost counters, plain fields (single-threaded; Engine.Instrument
	// publishes them at snapshot time): list links sorted inserts
	// followed, empty buckets peek stepped over, events routed through
	// the overflow lane.
	pushes, walk, skips, ovPushes uint64
	retunes, resizes              uint64 // rebuilds; rebuilds that changed the bucket count

	// The review window: cost() at which it ends, the cost it was opened
	// with, pushes at its start, and the multiplier of the next window's
	// budget, which doubles while retunes change nothing.
	limit, budget, winPushes, patience uint64
	resizeAt                           int // population at the last retune

	evScratch []*event // retune: the pending events, sorted
}

// calBucket is one bucket's sorted list. Head and tail sit side by side:
// a push reads both, at a random bucket, from one cache line this way.
type calBucket struct{ head, tail *event }

const (
	// minCalBuckets is the initial and minimum bucket count.
	minCalBuckets = 8
	// initCalWidth is the bucket width before the first retune has
	// observed any event spacing.
	initCalWidth = 1e-3
	// minCalWidth floors the adaptive width so vb stays far from int64
	// overflow for any simulated timescale.
	minCalWidth = 1e-9
	// calHead and calGaps: see Tuning above. Brown used 25 and 3; 64
	// events average over the bursts one packet's events arrive in.
	calHead = 64
	calGaps = 3
	// The unit of cost is one list link, a dependent load. A skipped
	// bucket is a sequential read, a quarter of that; an overflow routing
	// is a heap insert, a heap removal and the bucket insert it put off.
	// A window is healthy at one unit per push, so calOvCost also bounds
	// the lane's share of pushes at 1/64.
	calSkipShift = 2
	calOvCost    = 64
	// calWindow x (population + buckets) units of cost make a window:
	// several times what the retune that may end it costs.
	calWindow      = 16
	calMaxPatience = 64
)

func newCalQueue() *calQueue {
	c := &calQueue{
		buckets: make([]calBucket, minCalBuckets),
		mask:    minCalBuckets - 1,
		width:   initCalWidth,
		inv:     1 / initCalWidth,
	}
	c.openWindow(1)
	return c
}

// evLess is the engine's total event order: time, then scheduling-time
// tie key, then scheduling seq. For At and AtFunc pt is Now() at
// schedule time — non-decreasing in seq — so (time, pt, seq) collapses
// to the classic (time, seq) order; the middle key only separates
// events scheduled with an explicit pt (Engine.AtFuncPrio).
func evLess(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.pt != b.pt {
		return a.pt < b.pt
	}
	return a.seq < b.seq
}

// evCmp is evLess as the three-way comparison slices.SortFunc wants.
func evCmp(a, b *event) int {
	if evLess(a, b) {
		return -1
	}
	if evLess(b, a) {
		return 1
	}
	return 0
}

func (c *calQueue) len() int { return c.n + len(c.overflow) }

// cost is the work done so far beyond O(1) per operation.
func (c *calQueue) cost() uint64 {
	return c.walk + c.skips>>calSkipShift + calOvCost*c.ovPushes
}

func (c *calQueue) push(ev *event) {
	ev.idx = 0 // mark queued for Timer.Active
	ev.vb = int64(ev.time * c.inv)
	c.pushes++
	if c.cache != nil && evLess(ev, c.cache) {
		c.cache = nil
	}
	if ev.vb >= c.posVB+int64(len(c.buckets)) {
		c.ovPushes++
		c.pushOverflow(ev)
	} else {
		if ev.vb < c.posVB {
			// Defensive: the engine forbids scheduling before now and vb
			// is monotone, so this should be unreachable; resetting the
			// position keeps the scan invariant (no live event behind
			// posVB) even if a caller breaks the contract.
			c.posVB, c.posT = ev.vb, ev.time
		} else if ev.time < c.posT {
			// Same virtual bucket as the position but earlier in time
			// (contract-breaking callers again): keep posT at or below
			// every live event's time, where retune anchors the position.
			c.posT = ev.time
		}
		c.insertBucket(ev)
		c.n++
	}
	if c.cost() >= c.limit {
		c.review()
	}
}

// insertBucket links ev into its physical bucket in evLess order. An
// empty bucket, an event sorting at or after the tail (a lone engine's
// same-time events always carry a larger seq, so ties append) and one
// sorting before the head are O(1); anything else walks the list from
// its head, one counted link at a time. How often that happens, and how
// far, is what the bucket width decides.
func (c *calQueue) insertBucket(ev *event) {
	b := &c.buckets[ev.vb&c.mask]
	ev.next = nil
	tail := b.tail
	if tail == nil {
		b.head, b.tail = ev, ev
		return
	}
	if !evLess(ev, tail) {
		tail.next = ev
		b.tail = ev
		return
	}
	h := b.head
	if evLess(ev, h) {
		ev.next = h
		b.head = ev
		return
	}
	for h.next != nil && !evLess(ev, h.next) {
		h = h.next
		c.walk++
	}
	ev.next = h.next
	h.next = ev
}

// pushOverflow sifts ev up the overflow heap.
func (c *calQueue) pushOverflow(ev *event) {
	ev.next = nil
	h := append(c.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	c.overflow = h
}

// popOverflow removes and returns the overflow heap's minimum.
func (c *calQueue) popOverflow() *event {
	h := c.overflow
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	c.overflow = h
	i := 0
	for l := 1; l < n; l = 2*i + 1 {
		if r := l + 1; r < n && evLess(h[r], h[l]) {
			l = r
		}
		if !evLess(h[l], last) {
			break
		}
		h[i] = h[l]
		i = l
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// peek returns the minimum event without removing it, or nil.
func (c *calQueue) peek() *event {
	if c.cache != nil {
		return c.cache
	}
	// Move overflow events now within a year of the position into
	// buckets: they arrive in ascending order, so each appends.
	for horizon := c.posVB + int64(len(c.buckets)); len(c.overflow) > 0 && c.overflow[0].vb < horizon; {
		c.insertBucket(c.popOverflow())
		c.n++
	}
	if c.n == 0 {
		// Nothing within a year: the overflow minimum is next, and its pop
		// jumps the position there. No bucket is looked at, however many
		// there are.
		if len(c.overflow) == 0 {
			return nil
		}
		c.cache, c.cacheIdx = c.overflow[0], -1
		return c.cache
	}
	// Calendar scan: walk virtual buckets from the position. The first
	// head whose vb matches the scan position is the global minimum —
	// all events sharing a vb live in one bucket, sorted, and smaller vb
	// means strictly smaller time. The pop moves the position there, so
	// no bucket is stepped over twice.
	v := c.posVB
	i := int(v & c.mask)
	for k := 0; k < len(c.buckets); k++ {
		if h := c.buckets[i].head; h != nil && h.vb == v {
			c.skips += uint64(k)
			c.cache, c.cacheIdx = h, i
			return h
		}
		v++
		i = int(int64(i+1) & c.mask)
	}
	// Residents but none within a year: a contract-breaking push walked
	// the position back. Direct search over bucket minima and the
	// overflow root; the pop jumps the position to the winner.
	c.skips += 2 * uint64(len(c.buckets))
	var best *event
	bi := -1
	for i := range c.buckets {
		if h := c.buckets[i].head; h != nil && (best == nil || evLess(h, best)) {
			best, bi = h, i
		}
	}
	if len(c.overflow) > 0 && evLess(c.overflow[0], best) {
		best, bi = c.overflow[0], -1
	}
	c.cache, c.cacheIdx = best, bi
	return best
}

// pop removes and returns the minimum event, or nil.
func (c *calQueue) pop() *event {
	ev := c.peek()
	if ev == nil {
		return nil
	}
	if i := c.cacheIdx; i >= 0 {
		b := &c.buckets[i]
		b.head = ev.next
		if ev.next == nil {
			b.tail = nil
		}
		ev.next = nil
		c.n--
	} else {
		c.popOverflow()
	}
	c.posVB, c.posT = ev.vb, ev.time
	c.cache = nil
	ev.idx = -1
	if c.cost() >= c.limit || c.len() <= c.resizeAt/2 && len(c.buckets) > minCalBuckets {
		c.review()
	}
	return ev
}

// openWindow starts a review window of patience times the base budget.
func (c *calQueue) openWindow(patience uint64) {
	c.patience = patience
	c.budget = patience * calWindow * uint64(c.len()+len(c.buckets))
	c.limit = c.cost() + c.budget
	c.winPushes = c.pushes
}

// review runs when a window's budget of cost is spent or the population
// has halved since the last retune. A window that took at least as many
// pushes as it had budget cost one unit per push or less: healthy, open
// the next. Anything else is answered with a retune. The trigger is cost
// already paid, calWindow times what the retune will cost, so a stream
// no width suits pays a bounded surcharge, and patience shrinks that.
func (c *calQueue) review() {
	if c.cost() >= c.limit && c.pushes-c.winPushes >= c.budget {
		c.openWindow(1)
		return
	}
	c.retune()
}

// retune rebuilds the calendar around the events about to be dequeued
// (see Tuning in the type comment). Reinsertion is in sorted order, so
// every insertBucket appends and the overflow lane, filled ascending, is
// a heap as it stands.
func (c *calQueue) retune() {
	c.retunes++
	c.cache = nil
	all := c.evScratch[:0]
	for i := range c.buckets {
		for h := c.buckets[i].head; h != nil; h = h.next {
			all = append(all, h)
		}
		c.buckets[i] = calBucket{}
	}
	all = append(all, c.overflow...)
	clear(c.overflow)
	c.overflow = c.overflow[:0]
	slices.SortFunc(all, evCmp)
	c.evScratch = all[:0]
	n := len(all)
	c.resizeAt = n

	oldW, nb := c.width, minCalBuckets
	if n > 1 {
		k := min(calHead, n/4+1)
		if w := calGaps * (all[k].time - all[0].time) / float64(k); w >= minCalWidth {
			c.width = w // else the head is one instant: no signal, keep the width
		}
		year := 2 * (all[n-1-n/16].time - all[0].time)
		for nb < 4*n && float64(nb)*c.width < year {
			nb *= 2
		}
	}
	patience := uint64(1)
	if nb != len(c.buckets) {
		c.resizes++
		c.buckets = make([]calBucket, nb)
		c.mask = int64(nb - 1)
	} else if c.width < 2*oldW && oldW < 2*c.width {
		patience = min(2*c.patience, calMaxPatience) // nothing changed: wait longer next time
	}
	if n > 0 && all[0].time < c.posT {
		c.posT = all[0].time // a contract-breaking push went behind the position
	}
	c.inv = 1 / c.width
	c.posVB = int64(c.posT * c.inv)
	c.n = 0
	horizon := c.posVB + int64(nb)
	for _, ev := range all {
		ev.vb = int64(ev.time * c.inv)
		if ev.vb >= horizon {
			ev.next = nil
			c.overflow = append(c.overflow, ev)
			continue
		}
		c.insertBucket(ev)
		c.n++
	}
	c.openWindow(patience)
}
