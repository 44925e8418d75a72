package scenario

import (
	"encoding/json"
	"io"
	"maps"

	"qav/internal/core"
	"qav/internal/metrics"
)

// RunReport is the structured, JSON-stable summary of one run: the
// effective (normalized) configuration, the delivered-quality numbers,
// and a snapshot of every metric the run recorded. All maps inside
// marshal with sorted keys, so two identical runs produce byte-identical
// reports regardless of how many workers executed the sweep around them.
type RunReport struct {
	Name string `json:"name"`
	// Transport names the congestion-control backend the run's QA and
	// cross-traffic flows used ("rap", "delay", "greedy").
	Transport  string         `json:"transport"`
	Config     Config         `json:"config"`
	PlayedSec  float64        `json:"played_sec"`
	StallSec   float64        `json:"stall_sec"`
	MeanLayers float64        `json:"mean_layers"`
	Drops      core.DropStats `json:"drops"`
	Fleet      FleetStats     `json:"fleet"`
	// Fluid summarizes the hybrid background aggregate; nil (and absent
	// from the JSON) for pure packet-level runs, so their reports stay
	// byte-identical.
	Fluid   *FluidStats      `json:"fluid,omitempty"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// FleetStats summarizes the whole flow population of a run — always
// emitted, even for the single-QA paper presets, so sweeps over flow
// counts are machine-diffable from one key. Goodput rates average the
// cumulative delivered payload over the run duration.
type FleetStats struct {
	Flows    int `json:"flows"`
	QAFlows  int `json:"qa_flows"`
	RAPFlows int `json:"rap_flows"`
	TCPFlows int `json:"tcp_flows"`

	QAGoodputBps  float64 `json:"qa_goodput_bps"`
	RAPGoodputBps float64 `json:"rap_goodput_bps"`
	TCPGoodputBps float64 `json:"tcp_goodput_bps"`

	// JainFairnessTCP is Jain's index (Σx)²/(n·Σx²) over the TCP flows'
	// cumulative goodput: 1.0 is a perfectly even split, 1/n a single
	// flow hogging everything. Zero when the run has no TCP flows.
	JainFairnessTCP float64 `json:"jain_fairness_tcp"`
}

// fleetStats computes the population summary from the run's sources.
func (r *Result) fleetStats() FleetStats {
	fs := FleetStats{
		QAFlows:  len(r.QASrcs),
		RAPFlows: len(r.RAPSrcs),
		TCPFlows: len(r.TCPSrcs),
	}
	fs.Flows = fs.QAFlows + fs.RAPFlows + fs.TCPFlows
	dur := r.Cfg.Duration
	if dur <= 0 {
		return fs
	}
	var qa, rapB int64
	for _, q := range r.QASrcs {
		qa += q.RecvBytes
	}
	for _, rr := range r.RAPSrcs {
		rapB += rr.RecvBytes
	}
	var tcpB int64
	var sum, sumSq float64
	for _, t := range r.TCPSrcs {
		g := t.GoodputBytes()
		tcpB += g
		x := float64(g)
		sum += x
		sumSq += x * x
	}
	fs.QAGoodputBps = float64(qa) / dur
	fs.RAPGoodputBps = float64(rapB) / dur
	fs.TCPGoodputBps = float64(tcpB) / dur
	fs.JainFairnessTCP = jainIndex(sum, sumSq, fs.TCPFlows)
	return fs
}

// FluidStats summarizes the background aggregate of a hybrid run: the
// modeled populations, the bandwidth the aggregate actually got
// (serviced bytes over the run duration), its overflow losses, and the
// rate it ended at. The byte totals are the fluid model's own
// accounting, not packet counts.
type FluidStats struct {
	TCPFlows int `json:"tcp_flows"`
	RAPFlows int `json:"rap_flows"`

	GoodputBps   float64 `json:"goodput_bps"`
	OfferedBytes float64 `json:"offered_bytes"`
	DroppedBytes float64 `json:"dropped_bytes"`
	Backoffs     int64   `json:"backoffs"`
	FinalRateBps float64 `json:"final_rate_bps"`
}

// fluidStats summarizes the hybrid background, nil for pure
// packet-level runs.
func (r *Result) fluidStats() *FluidStats {
	f := r.Fluid
	if f == nil {
		return nil
	}
	fs := &FluidStats{
		TCPFlows:     r.Cfg.FluidTCP,
		RAPFlows:     r.Cfg.FluidRAP,
		OfferedBytes: f.OfferedBytes,
		DroppedBytes: f.DroppedBytes,
		Backoffs:     f.Backoffs,
		FinalRateBps: f.Rate(),
	}
	if r.Cfg.Duration > 0 {
		fs.GoodputBps = f.ServedBytes / r.Cfg.Duration
	}
	return fs
}

// jainIndex computes Jain's fairness index (Σx)²/(n·Σx²) from a
// population's goodput sum and sum of squares. An empty or all-zero
// population — every flow at zero goodput, the most pathological run —
// yields 0 rather than NaN (0/0): encoding/json refuses to marshal
// NaN, so a NaN here would make -report fail exactly when its output
// matters most. Every Jain computation (the run report and the
// sampler's fleetFold) must go through this one guard.
func jainIndex(sum, sumSq float64, n int) float64 {
	if n <= 0 || !(sumSq > 0) {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// Report summarizes the run. The metrics snapshot is taken now, from
// the run's registry (empty when the config had none attached); call it
// after Run has returned — the snapshot's Func instruments read the
// simulation's single-threaded state. A follower's (RunEach) is the
// report of the run it followed, under its own name and config, with its
// controllers' metrics and delivered quality: a Run's, byte for byte.
func (r *Result) Report() RunReport {
	if r.lead != nil {
		rep := r.lead.Report()
		rep.Name, rep.Config = r.Cfg.Name, r.Cfg
		top := r.Metrics.Snapshot()
		maps.Copy(rep.Metrics.Counters, top.Counters)
		maps.Copy(rep.Metrics.Gauges, top.Gauges)
		maps.Copy(rep.Metrics.Histograms, top.Histograms)
		r.quality(&rep)
		return rep
	}
	rep := RunReport{
		Name:      r.Cfg.Name,
		Transport: string(r.Cfg.Transport),
		Config:    r.Cfg,
		Fleet:     r.fleetStats(),
		Fluid:     r.fluidStats(),
		Metrics:   r.Metrics.Snapshot(),
	}
	r.quality(&rep)
	return rep
}

// quality sets rep's delivered-quality numbers from the result's.
func (r *Result) quality(rep *RunReport) {
	rep.PlayedSec, rep.StallSec, rep.Drops = r.PlayedSec, r.StallSec, r.Stats
	rep.MeanLayers = 0
	if r.PlayedSec > 0 {
		rep.MeanLayers = r.LayerSeconds / r.PlayedSec
	}
}

// WriteJSON writes the report as indented JSON.
func (rep RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteReports writes several reports as one indented JSON array, the
// qasim/qafig -report artifact format.
func WriteReports(w io.Writer, reps []RunReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reps)
}
