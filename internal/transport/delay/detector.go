package delay

// signal is the detector's per-sample verdict.
type signal int

const (
	sigNormal signal = iota
	sigOveruse
	sigUnderuse
)

// detector compares the filtered gradient against an adaptive threshold
// γ. Overuse is declared only after the gradient has stayed above γ for
// overuseTime seconds without decreasing — a single queue blip is not a
// congestion episode. The threshold itself chases |m| (fast when |m| is
// above it, slowly when below), which keeps the controller from
// starving next to loss-based flows: their sawtooth drags γ up, and the
// delay flow stops backing off for queue oscillation it cannot remove.
type detector struct {
	gamma     float64
	overSince float64 // time first entered the over-threshold region
	inOver    bool
	prevM     float64
}

const (
	gamma0   float64 = 0.01  // initial threshold γ, s/s
	gammaMin float64 = 0.002 // γ's clamp, s/s
	gammaMax float64 = 0.3
	// kUp is γ's adaptation rate when |m| > γ, 1/s: the fast chase keeps
	// a delay flow from starving next to loss-based flows.
	kUp float64 = 8
	// kDown is γ's adaptation rate when |m| ≤ γ, 1/s.
	kDown float64 = 0.2
	// overuseTime is how long, seconds, the gradient must stay over γ
	// before overuse is declared.
	overuseTime float64 = 0.01
)

func newDetector() detector {
	return detector{gamma: gamma0}
}

// update consumes the filtered gradient m at time now (dt seconds since
// the previous sample) and returns the congestion verdict.
func (d *detector) update(now, dt, m float64) signal {
	if dt > 0.1 {
		dt = 0.1 // a long ACK silence must not slam γ in one step
	}
	abs := m
	if abs < 0 {
		abs = -abs
	}
	k := kDown
	if abs > d.gamma {
		k = kUp
	}
	d.gamma += dt * k * (abs - d.gamma)
	if d.gamma < gammaMin {
		d.gamma = gammaMin
	}
	if d.gamma > gammaMax {
		d.gamma = gammaMax
	}

	var s signal
	switch {
	case m > d.gamma:
		if !d.inOver {
			d.inOver = true
			d.overSince = now
		}
		// Sustained and not easing off → overuse.
		if now-d.overSince >= overuseTime && m >= d.prevM {
			s = sigOveruse
		}
	case m < -d.gamma:
		d.inOver = false
		s = sigUnderuse
	default:
		d.inOver = false
	}
	d.prevM = m
	return s
}
