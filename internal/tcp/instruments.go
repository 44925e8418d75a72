package tcp

import "qav/internal/metrics"

// Instruments are the metric handles a TCP source records through;
// record sites are nil-guarded so uninstrumented sources pay one branch.
// The histogram is single-writer: the sources sharing it run on one
// goroutine.
type Instruments struct {
	// FastRetransmits counts retransmissions sent outside an RTO (fast
	// retransmit / SACK-driven).
	FastRetransmits *metrics.Counter
	// RTOBackoffs counts retransmission-timer expirations.
	RTOBackoffs *metrics.Counter
	// Recoveries counts fast-recovery episodes entered.
	Recoveries *metrics.Counter
	// SRTT observes the smoothed RTT estimate after every sample.
	SRTT *metrics.LocalHistogram
}

// NewInstruments registers TCP instruments on reg under prefix (e.g.
// prefix "tcp" yields "tcp.fastrtx", ...). Sources sharing a prefix
// share aggregated counters; each call registers its own histogram,
// summed by name at snapshot time.
func NewInstruments(reg *metrics.Registry, prefix string) *Instruments {
	return &Instruments{
		FastRetransmits: reg.Counter(prefix + ".fastrtx"),
		RTOBackoffs:     reg.Counter(prefix + ".rto"),
		Recoveries:      reg.Counter(prefix + ".recoveries"),
		SRTT:            reg.LocalHistogram(prefix+".srtt", metrics.HistogramOpts{}),
	}
}

// Instrument attaches ins (may be shared between sources) and publishes
// the source's packet counters on reg under the same prefix as
// snapshot-time Func metrics. Call before the simulation starts.
func (s *Source) Instrument(reg *metrics.Registry, prefix string, ins *Instruments) {
	s.ins = ins
	reg.CounterFunc(prefix+".sent", func() int64 { return s.SentPkts })
	reg.CounterFunc(prefix+".retrans", func() int64 { return s.RetransPkts })
	reg.CounterFunc(prefix+".acked", func() int64 { return s.AckedPkts })
	reg.GaugeFunc(prefix+".cwnd", func() float64 { return s.cwnd })
}
