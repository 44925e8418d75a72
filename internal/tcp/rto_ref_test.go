package tcp

import "qav/internal/sim"

// The retransmission timer the deadline timer replaced: cancel the
// pending timeout and schedule a fresh one on every armRTO call, the
// pre-deadline code verbatim, kept as the reference the differential
// tests compare against. useRearmRTO puts it under a whole Source.

// useRearmRTO swaps src's retransmission timer for the reference. Call
// it straight after NewSource: the timer is first armed by the source's
// start event.
func useRearmRTO(src *Source) {
	var timer sim.Timer
	fire := src.onRTO
	src.testArmRTO = func(pipe int) {
		timer.Cancel()
		if pipe == 0 && src.board.lostCount() == 0 {
			return
		}
		timer = src.eng.After(src.rtt.RTO()*src.rtoBackoff, fire)
	}
}
