package transport

// Fine-grain rate adaptation (the RAP variant the QA paper sets aside
// because its sawtooth is harder to predict, included here as the
// documented extension): the effective inter-packet gap is modulated by
// the ratio of a short-term to a long-term RTT average, so the sender
// eases off as the bottleneck queue builds — before losses occur — and
// speeds up as it drains. This emulates TCP's ACK-clock self-pacing and
// improves RAP's fairness against TCP at DropTail bottlenecks.
//
// Feedback factor (per the RAP paper): fine = srttShort / srttLong,
// clamped to [0.5, 2]; effective IPG = base IPG × fine.

// fineGrain holds the short/long RTT averages for the fine-grain
// feedback term.
type fineGrain struct {
	enabled    bool
	srttShort  float64
	srttLong   float64
	haveSample bool
}

const (
	fgShortGain = 1.0 / 4.0  // fast-moving average
	fgLongGain  = 1.0 / 32.0 // slow-moving average
	fgMin       = 0.5
	fgMax       = 2.0
)

func (f *fineGrain) sample(rtt float64) {
	if !f.enabled || rtt <= 0 {
		return
	}
	if !f.haveSample {
		f.srttShort, f.srttLong = rtt, rtt
		f.haveSample = true
		return
	}
	f.srttShort += fgShortGain * (rtt - f.srttShort)
	f.srttLong += fgLongGain * (rtt - f.srttLong)
}

// factor returns the multiplicative IPG adjustment.
func (f *fineGrain) factor() float64 {
	if !f.enabled || !f.haveSample || f.srttLong <= 0 {
		return 1
	}
	r := f.srttShort / f.srttLong
	if r < fgMin {
		return fgMin
	}
	if r > fgMax {
		return fgMax
	}
	return r
}
