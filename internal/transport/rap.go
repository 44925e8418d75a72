package transport

// RAPConfig parameterizes a RAP sender. Zero fields take BaseConfig's
// defaults.
type RAPConfig struct {
	// PacketSize is the fixed payload size in bytes.
	PacketSize int
	// InitialRate is the starting transmission rate, bytes/s.
	InitialRate float64
	// MaxRate optionally caps the rate (0 = uncapped), bytes/s.
	MaxRate float64
	// InitialRTT seeds the SRTT estimator, seconds.
	InitialRTT float64
	// FineGrain enables the RAP variant with fine-grain inter-ACK rate
	// adaptation (short/long RTT ratio modulating the inter-packet
	// gap). The quality adaptation paper analyzes the variant without
	// it; the variant with it is smoother against TCP.
	FineGrain bool
}

// RAP is the Rate Adaptation Protocol sender (Rejaie, Handley, Estrin),
// the TCP-friendly, rate-based AIMD congestion control the paper's
// quality adaptation runs on and the backend behind every figure and
// table the repo regenerates: Base's bookkeeping plus the AIMD policy —
// one packet per SRTT up each step, halve once per loss cluster — and
// the optional fine-grain IPG factor. Not goroutine-safe; one flow owns
// one RAP.
type RAP struct {
	Base
	fg fineGrain
}

var _ Transport = (*RAP)(nil)

// NewRAP returns a RAP sender with cfg (zero fields take defaults).
func NewRAP(cfg RAPConfig) *RAP {
	return &RAP{
		Base: NewBase(BaseConfig{
			PacketSize:  cfg.PacketSize,
			InitialRate: cfg.InitialRate,
			MaxRate:     cfg.MaxRate,
			InitialRTT:  cfg.InitialRTT,
		}),
		fg: fineGrain{enabled: cfg.FineGrain},
	}
}

// Kind returns KindRAP.
func (r *RAP) Kind() Kind { return KindRAP }

// IPG returns the current inter-packet gap in seconds, including the
// fine-grain feedback adjustment when that variant is enabled.
func (r *RAP) IPG() float64 { return r.Base.IPG() * r.fg.factor() }

// FineGrainFactor returns the current fine-grain IPG multiplier (1 when
// the variant is disabled).
func (r *RAP) FineGrainFactor() float64 { return r.fg.factor() }

// ConservativeSlope returns a pessimistic estimate of the additive
// increase slope (one packet per SRTT, once per SRTT, bytes/s²) based on
// the peak-RTT envelope rather than the instantaneous SRTT. Queue
// buildup makes SRTT — and hence the instantaneous slope — swing
// several-fold within one congestion cycle; the paper (§2.2) names slope
// misestimation as a cause of critical situations, so quality adaptation
// decisions use this slower, smaller estimate.
func (r *RAP) ConservativeSlope() float64 {
	rtt := r.PeakRTT()
	return float64(r.PacketSize()) / (rtt * rtt)
}

// OnAck processes an acknowledgement for seq received at time now. It
// returns the backoff performed, if any (loss inferred from the ACK
// pattern), or nil.
func (r *RAP) OnAck(now float64, seq int64) *Backoff {
	if rtt, ok := r.AckRTT(now, seq); ok {
		r.fg.sample(rtt)
	}
	if lost := r.ReorderLosses(); len(lost) > 0 {
		return r.Backoff(now, r.Rate()/2, lost)
	}
	return nil
}

// Step performs the periodic (once per SRTT) rate decision: checking for
// timed-out packets and, absent loss, applying the additive increase. It
// returns the backoff performed, if any.
func (r *RAP) Step(now float64) *Backoff {
	if lost := r.TimeoutLosses(now); len(lost) > 0 {
		return r.Backoff(now, r.Rate()/2, lost)
	}
	r.SetRate(r.Rate() + float64(r.PacketSize())/r.SRTT())
	return nil
}
