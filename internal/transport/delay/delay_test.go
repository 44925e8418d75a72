package delay

import (
	"math"
	"testing"

	"qav/internal/transport"
)

// prng is a small deterministic generator for jitter; tests must not
// depend on the global rand seed.
type prng uint64

func (p *prng) next() float64 { // uniform in [-1, 1)
	*p ^= *p << 13
	*p ^= *p >> 7
	*p ^= *p << 17
	return float64(int64(*p)%1_000_000) / 1_000_000
}

// TestKalmanConvergence checks the filter recovers a constant gradient
// buried in measurement jitter four times larger than the signal, and
// that the online residual-variance estimate keeps the gain from
// whipsawing: after convergence the estimate stays in a band far
// narrower than the raw noise and its mean tracks the true gradient.
func TestKalmanConvergence(t *testing.T) {
	const trueM = 0.05
	k := newKalman()
	rng := prng(0x12345678DEADBEEF)
	var last float64
	for i := 0; i < 4000; i++ {
		z := trueM + 0.2*rng.next() // noise ±0.2 vs signal 0.05
		last = k.update(z)
	}
	if math.Abs(last-trueM) > 0.05 {
		t.Fatalf("estimate %.4f did not converge to %.4f", last, trueM)
	}
	// Tail: the steady-state gain keeps each estimate well inside the
	// raw noise amplitude, and the tail mean is unbiased.
	var sum float64
	for i := 0; i < 500; i++ {
		m := k.update(trueM + 0.2*rng.next())
		if math.Abs(m-trueM) > 0.12 {
			t.Fatalf("estimate %.4f left the band after convergence (sample %d)", m, i)
		}
		sum += m
	}
	if mean := sum / 500; math.Abs(mean-trueM) > 0.02 {
		t.Fatalf("tail mean %.4f, want %.4f±0.02", mean, trueM)
	}
}

func TestKalmanDegenerateMeasurementResets(t *testing.T) {
	k := newKalman()
	k.update(0.01)
	if m := k.update(math.Inf(1)); m != 0 {
		t.Fatalf("infinite measurement produced %v, want reset to 0", m)
	}
	if m := k.update(0.01); math.IsNaN(m) || math.IsInf(m, 0) {
		t.Fatalf("filter did not recover after reset: %v", m)
	}
}

// TestDetectorHysteresis pins the three-way verdict logic: a single
// gradient spike is not overuse, a sustained non-decreasing excursion
// is, and a strong negative gradient reads as underuse.
func TestDetectorHysteresis(t *testing.T) {
	const dt = 0.001
	d := newDetector()
	now := 0.0
	step := func(m float64) signal {
		now += dt
		return d.update(now, dt, m)
	}

	for i := 0; i < 50; i++ {
		if s := step(0.001); s != sigNormal {
			t.Fatalf("quiet gradient gave signal %v", s)
		}
	}
	// One spike: over threshold but not sustained.
	if s := step(0.1); s != sigNormal {
		t.Fatalf("single spike declared %v, want normal (hysteresis)", s)
	}
	if s := step(0.001); s != sigNormal {
		t.Fatalf("post-spike sample gave %v", s)
	}

	// Sustained excursion: must fire only after overTime (10 samples at
	// 1 ms), and then keep firing while the gradient holds.
	fired := -1
	for i := 0; i < 40; i++ {
		if s := step(0.1); s == sigOveruse {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("sustained gradient never declared overuse")
	}
	if fired < 9 {
		t.Fatalf("overuse fired after only %d ms, want >= overTime (10 ms)", fired+1)
	}

	// A decreasing gradient inside the excursion postpones the verdict
	// (the queue is already easing).
	d2 := newDetector()
	n2 := 0.0
	for i := 0; i < 30; i++ {
		n2 += dt
		if s := d2.update(n2, dt, 0.2-float64(i)*0.005); s == sigOveruse {
			t.Fatalf("decreasing gradient declared overuse at sample %d", i)
		}
	}

	// Strong negative gradient: underuse.
	if s := step(-0.5); s != sigUnderuse {
		t.Fatalf("negative gradient gave %v, want underuse", s)
	}
}

func TestDetectorThresholdAdapts(t *testing.T) {
	d := newDetector()
	// A loss-based neighbour's sawtooth: large oscillating gradients. γ
	// must chase up toward the oscillation amplitude so the detector
	// stops treating the ambient queue swing as overuse.
	now := 0.0
	for i := 0; i < 2000; i++ {
		now += 0.001
		m := 0.2
		if i%2 == 1 {
			m = -0.2
		}
		d.update(now, 0.001, m)
	}
	if d.gamma < 0.1 {
		t.Fatalf("threshold %.4f did not adapt up under sustained oscillation", d.gamma)
	}
	// Quiet period: γ must relax back down (kDown), restoring
	// sensitivity.
	for i := 0; i < 20000; i++ {
		now += 0.001
		d.update(now, 0.001, 0.0005)
	}
	if d.gamma > 0.02 {
		t.Fatalf("threshold %.4f did not relax after the oscillation stopped", d.gamma)
	}
}

// TestOveruseBacksOffBeforeLoss is the controller's defining property:
// under steadily growing RTT (a filling queue) with every packet
// delivered, it must issue a multiplicative decrease with an empty loss
// list — i.e. react to the queue before anything is dropped.
func TestOveruseBacksOffBeforeLoss(t *testing.T) {
	c := New(Config{Base: transport.BaseConfig{
		PacketSize: 512, InitialRTT: 0.04, InitialRate: 50_000,
	}})
	now, rtt := 0.0, 0.04
	var backoff *transport.Backoff
	rate0 := c.Rate()
	for i := 0; i < 2000 && backoff == nil; i++ {
		seq := c.OnSend(now)
		ipg := c.IPG()
		// The queue grows by half a send-gap of delay per packet: a
		// clean +0.33 s/s RTT gradient, far above gammaMax.
		b := c.OnAck(now+rtt, seq)
		if b != nil {
			backoff = b
		}
		now += ipg
		rtt += 0.5 * ipg
	}
	if backoff == nil {
		t.Fatal("growing RTT never triggered an overuse backoff")
	}
	if len(backoff.LostSeqs) != 0 {
		t.Fatalf("overuse backoff carried losses %v, want none", backoff.LostSeqs)
	}
	if got := c.Counters(); got.Lost != 0 || got.Backoffs == 0 {
		t.Fatalf("counters %+v: want zero losses and a recorded backoff", got)
	}
	if c.Overuses() == 0 {
		t.Fatal("Overuses() not incremented")
	}
	if c.Rate() >= rate0 {
		t.Fatalf("rate %.0f did not decrease from %.0f", c.Rate(), rate0)
	}
	if c.Gradient() <= 0 {
		t.Fatalf("gradient %.4f should be positive while the queue grows", c.Gradient())
	}
}

// TestUnderuseHoldsRate: after the detector reports underuse (queue
// draining), Step must hold the rate instead of climbing into the
// still-recovering queue.
func TestUnderuseHoldsRate(t *testing.T) {
	c := New(Config{Base: transport.BaseConfig{
		PacketSize: 512, InitialRTT: 0.04, InitialRate: 50_000,
	}})
	now, rtt := 0.0, 0.5
	// Shrinking RTT: strong negative gradient until the detector flags
	// underuse.
	for i := 0; i < 2000 && !c.underuse; i++ {
		seq := c.OnSend(now)
		ipg := c.IPG()
		c.OnAck(now+rtt, seq)
		now += ipg
		rtt -= 0.5 * ipg
	}
	if !c.underuse {
		t.Fatal("draining queue never flagged underuse")
	}
	if c.Gradient() >= 0 {
		t.Fatalf("gradient %.4f should be negative while the queue drains", c.Gradient())
	}
	before := c.Rate()
	if b := c.Step(now); b != nil {
		t.Fatalf("unexpected backoff from Step: %+v", b)
	}
	if c.Rate() != before {
		t.Fatalf("rate moved %.2f -> %.2f during underuse, want hold", before, c.Rate())
	}

	// A flat RTT decays the gradient back inside the threshold and
	// restores the additive climb.
	for i := 0; i < 5000 && c.underuse; i++ {
		seq := c.OnSend(now)
		c.OnAck(now+rtt, seq)
		now += c.IPG()
	}
	if c.underuse {
		t.Fatal("gradient never normalized on a flat RTT")
	}
	before = c.Rate()
	c.Step(now)
	if c.Rate() <= before {
		t.Fatalf("rate %.2f did not climb after gradient normalized", c.Rate())
	}
}
