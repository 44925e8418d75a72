// Package transport defines the congestion-control seam between the
// scenario layer and the rate controllers that drive it. The paper's
// central claim is that quality adaptation is decoupled from congestion
// control: the QA controller only needs a transmission rate, a
// conservative slope estimate, and backoff notifications. Transport is
// exactly that surface — the flow driver (internal/flow) drives any
// backend through it, in the simulator and on the wire, and backends
// plug in without the QA, scenario or serving layers changing.
//
// Three backends implement it, each Base (sequence window, RTT/RTO
// estimator, backoff fence, counters, instruments) plus a rate policy:
//
//   - RAP in this package (NewRAP), the paper's AIMD sender: every
//     figure and table the repo regenerates is produced through it;
//   - transport/delay, a delay-based (GCC-style) controller that
//     Kalman-filters the RTT gradient and backs off on overuse, before
//     loss;
//   - transport/greedy, a loss-only throughput-greedy baseline (the
//     "adaptive bitrate over TCP" adversary).
//
// Backends are not goroutine-safe; each flow owns one instance and its
// engine, or its server shard, serializes access.
package transport

import (
	"fmt"
	"sort"

	"qav/internal/metrics"
)

// Kind names a transport backend. The zero value is not a valid kind;
// scenario.Config normalizes it to KindRAP.
type Kind string

const (
	// KindRAP is the paper's Rate Adaptation Protocol (the reference
	// backend; additive increase, halve on loss).
	KindRAP Kind = "rap"
	// KindDelay is the delay-based GCC-style controller (Kalman
	// RTT-gradient filter, overuse detector, AIMD; backs off before loss).
	KindDelay Kind = "delay"
	// KindGreedy is the loss-only throughput-greedy baseline.
	KindGreedy Kind = "greedy"
)

// Kinds returns the known backend names, sorted.
func Kinds() []Kind {
	ks := []Kind{KindRAP, KindDelay, KindGreedy}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// ParseKind validates a backend name ("" parses as KindRAP, the
// default).
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "", KindRAP:
		return KindRAP, nil
	case KindDelay:
		return KindDelay, nil
	case KindGreedy:
		return KindGreedy, nil
	}
	return "", fmt.Errorf("transport: unknown kind %q (have %v)", s, Kinds())
}

// Backoff describes one rate decrease the transport performed. LostSeqs
// lists the data packets inferred lost, if any — a delay-based backend
// backs off on queue growth alone, with no losses to report. The
// pointer a Transport returns is only valid until its next method call
// (backends reuse one event struct to keep the ACK path allocation
// free); consumers act on it immediately.
type Backoff struct {
	Time     float64
	OldRate  float64
	NewRate  float64
	LostSeqs []int64
}

// Counters are the cumulative decision counts every backend maintains,
// for summaries, facts, and tests.
type Counters struct {
	Sent     int64 // data packets registered via OnSend
	Acked    int64 // packets confirmed delivered
	Lost     int64 // packets inferred lost (reorder gap or timeout)
	Backoffs int64 // rate decreases performed
	Timeouts int64 // Step invocations that detected timed-out packets
}

// Transport is the congestion-control surface the flow driver consumes.
// All timestamps are the caller's clock (virtual or wall); backends keep
// no clocks of their own, so the same state machine runs in the
// simulator and over real sockets.
type Transport interface {
	// OnSend registers a packet transmission at now and returns its
	// sequence number.
	OnSend(now float64) int64
	// Tag labels the sequence the preceding OnSend returned; the label
	// leaves the backend with the sequence, by ACK or by loss.
	Tag(seq int64, tag int32)
	// OnAck processes an acknowledgement for seq, returning the backoff
	// performed (loss inferred, or — delay backend — overuse), or nil.
	OnAck(now float64, seq int64) *Backoff
	// Acked reports whether the last OnAck's sequence was outstanding
	// (fresh: not a duplicate, not declared lost, not never sent) and,
	// if so, its Tag label.
	Acked() (tag int32, fresh bool)
	// Step performs the periodic rate decision (timeout detection,
	// increase/decrease); the caller invokes it every StepInterval.
	Step(now float64) *Backoff
	// StepInterval returns how often Step should run (one SRTT).
	StepInterval() float64
	// Rate returns the current transmission rate, bytes/s.
	Rate() float64
	// IPG returns the current inter-packet gap, seconds.
	IPG() float64
	// SRTT returns the smoothed round-trip time estimate, seconds.
	SRTT() float64
	// ConservativeSlope returns the pessimistic additive-increase slope
	// estimate (bytes/s²) quality adaptation plans with; see the paper
	// §2.2 on slope misestimation.
	ConservativeSlope() float64
	// PacketSize returns the fixed payload size, bytes.
	PacketSize() int
	// Kind identifies the backend, for metric namespaces and reports.
	Kind() Kind
	// Counters returns the cumulative decision counts.
	Counters() Counters
	// Outstanding returns the number of packets sent and neither
	// acknowledged nor declared lost: Sent - Acked - Lost.
	Outstanding() int
	// Instrument attaches ins (shared between flows of one class; must
	// be non-nil) and publishes the backend's packet counters on reg
	// under prefix as snapshot-time Func metrics. Call before the run.
	Instrument(reg *metrics.Registry, prefix string, ins *Instruments)
}

// Instruments are the metric handles a transport records through,
// registered once per flow class of a run. The histograms are
// single-writer: only flows on one goroutine may share them. The record
// sites are branch-guarded: an uninstrumented backend pays one
// predictable branch. The names
// registered under a prefix ("<prefix>.backoffs", ".timeouts", ".srtt",
// ".ackgap") are part of the report format. Backends may register
// extra, backend-specific metrics in Instrument (the delay backend adds
// "<prefix>.overuse").
type Instruments struct {
	// Backoffs counts rate decreases (loss clusters or overuse events
	// reacted to).
	Backoffs *metrics.Counter
	// Timeouts counts Step invocations that detected timed-out packets.
	Timeouts *metrics.Counter
	// SRTT observes the smoothed RTT estimate after every sample.
	SRTT *metrics.LocalHistogram
	// AckGap observes the spacing between successive ACK arrivals.
	AckGap *metrics.LocalHistogram
}

// NewInstruments registers transport instruments on reg under prefix
// (e.g. "qa.delay" yields "qa.delay.backoffs", ...). Flows sharing a
// prefix share aggregated counters; each call registers its own
// histograms, summed by name at snapshot time.
func NewInstruments(reg *metrics.Registry, prefix string) *Instruments {
	return &Instruments{
		Backoffs: reg.Counter(prefix + ".backoffs"),
		Timeouts: reg.Counter(prefix + ".timeouts"),
		SRTT:     reg.LocalHistogram(prefix+".srtt", metrics.HistogramOpts{}),
		AckGap:   reg.LocalHistogram(prefix+".ackgap", metrics.HistogramOpts{}),
	}
}
