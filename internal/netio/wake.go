package netio

// Wake coalescing for the shard loop (shard.run).
//
// A shard that blocks in the socket read is woken by every arrival. At
// a few hundred packets per second that is what keeps a REQ or an ACK
// answered at once; at tens of thousands it is one context switch, one
// one-datagram read, one near-empty pump, one deadline re-arm and one
// EAGAIN per acknowledgement, and that system time is most of what a
// packet costs. So the loop watches its own event rate and, under
// sustained load, stops waiting for arrivals: it sleeps to the next
// wheel tick, reads everything the tick left in the socket buffer, and
// sends everything the tick made due (NAPI's interrupt-to-poll switch,
// with the wheel tick as the poll period).
//
// The thresholds are constants, not configuration. What they weigh is
// wake-ups per tick against at most one tick of added delay, and both
// sides are fixed by the wheel tick: the wheel's quantum, hence when a
// tick-driven shard next has anything to do, and about the finest wait
// an arrival-driven read gets (while a thread idles in epoll_wait,
// timer waits are rounded up to a millisecond). Nothing about a
// deployment changes that balance.

const (
	// wakeTauSec is the time constant of the event-rate average: long
	// enough that one burst of joins or a batch of acknowledgements
	// landing together does not flip the mode, short enough that a
	// loaded shard is coalescing within tens of milliseconds.
	wakeTauSec = 0.1
	// wakeOnRate and wakeOffRate are the event rates, in datagrams read
	// plus packets sent per wheel tick, at which a shard starts and
	// stops coalescing. At 8 a tick's wake replaces eight; the factor of
	// two between them keeps a shard sitting near one threshold from
	// switching back and forth.
	wakeOnRate  = 8.0
	wakeOffRate = 4.0
)

// wakePolicy is the mode decision, kept free of clocks and sockets so
// it can be driven with synthetic (dt, events) sequences.
type wakePolicy struct {
	rate     float64 // events per wheel tick, averaged over ~wakeTauSec
	coalesce bool    // tick-driven (true) or arrival-driven (false)
}

// observe folds one loop iteration — dt seconds long, `events`
// datagrams read plus packets sent — into the average and returns the
// mode for the next iteration. The update is the irregular-interval
// EWMA rate += (events/dt - rate) * dt/(tau+dt) with the division by dt
// multiplied out, so a zero-length iteration is an impulse, not a NaN.
func (p *wakePolicy) observe(dt float64, events int) bool {
	p.rate += (float64(events)*wheelTickSec - p.rate*dt) / (wakeTauSec + dt)
	if p.coalesce {
		p.coalesce = p.rate >= wakeOffRate
	} else {
		p.coalesce = p.rate >= wakeOnRate
	}
	return p.coalesce
}
