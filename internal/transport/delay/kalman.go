package delay

import "math"

// kalman is a scalar Kalman filter over the RTT gradient (seconds of
// delay change per second of wall time, so the estimate is scale-free
// across bottleneck speeds). The state is the gradient m; the
// measurement noise is re-estimated online from the filter residuals so
// bursty ACK jitter widens the gate instead of whipsawing the estimate
// (the same trick the GCC arrival filter uses).
type kalman struct {
	m float64 // gradient estimate, s/s
	p float64 // estimate variance
	r float64 // measurement-noise variance (EWMA of residual²)
	n int64   // samples consumed
}

const (
	// processNoise is the variance added per update; larger tracks
	// gradient changes faster.
	processNoise float64 = 1e-4
	// noiseInit seeds the measurement-noise variance.
	noiseInit float64 = 0.01
	// noiseChi is the residual-variance EWMA factor, in (0,1).
	noiseChi float64 = 0.9
)

func newKalman() kalman {
	return kalman{p: 0.1, r: noiseInit}
}

// update folds one gradient measurement z into the estimate and returns
// the posterior mean.
func (k *kalman) update(z float64) float64 {
	k.n++
	k.p += processNoise
	resid := z - k.m
	// Residual variance EWMA, floored so the gain never pins to 1.
	k.r = noiseChi*k.r + (1-noiseChi)*resid*resid
	if k.r < 1e-8 {
		k.r = 1e-8
	}
	gain := k.p / (k.p + k.r)
	k.m += gain * resid
	k.p *= 1 - gain
	if math.IsNaN(k.m) || math.IsInf(k.m, 0) {
		// A degenerate measurement (zero dt upstream) must not poison
		// the filter permanently.
		k.m, k.p = 0, 0.1
	}
	return k.m
}
