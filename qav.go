// Package qav reproduces "Quality Adaptation for Congestion Controlled
// Video Playback over the Internet" (Rejaie, Handley, Estrin — SIGCOMM
// 1999): layered video streamed over a TCP-friendly, rate-based AIMD
// transport (RAP), with receiver buffering distributed across layers
// along the paper's maximally efficient path so that short-term
// congestion backoffs are absorbed without visible quality changes.
//
// This root package is the public facade. The pieces live in internal
// packages and are re-exported here:
//
//   - the quality adaptation engine (buffer-requirement formulas, state
//     ladder, filling and draining allocators, add/drop rules),
//   - the RAP congestion control state machine,
//   - a discrete-event network simulator with Sack-TCP and CBR cross
//     traffic (the evaluation substrate),
//   - a real-UDP transport plus network emulator,
//   - scenario builders and figure/table generators for every experiment
//     in the paper's evaluation section.
//
// Quick start:
//
//	res, err := qav.Simulate(qav.SingleQA(2))
//	fmt.Println(res.Stats.Adds, res.Stats.Drops, res.StallSec)
package qav

import (
	"context"
	"net"
	"time"

	"qav/internal/core"
	"qav/internal/metrics"
	"qav/internal/netio"
	"qav/internal/scenario"
	"qav/internal/trace"
	"qav/internal/transport"
	"qav/internal/video"
)

// Re-exported core types: the quality adaptation engine.
type (
	// Params configures a quality adaptation controller (per-layer rate
	// C, smoothing factor Kmax, maximum layers, startup buffering).
	Params = core.Params
	// Controller is the server-side quality adaptation engine.
	Controller = core.Controller
	// Event is one controller decision (add, drop, backoff, stall...).
	Event = core.Event
	// EventKind classifies controller events.
	EventKind = core.EventKind
	// Scenario identifies the two extreme multi-backoff loss patterns.
	Scenario = core.Scenario
)

// Controller event kinds.
const (
	EvPlayStart  = core.EvPlayStart
	EvAddLayer   = core.EvAddLayer
	EvDropLayer  = core.EvDropLayer
	EvBackoff    = core.EvBackoff
	EvStallStart = core.EvStallStart
	EvStallEnd   = core.EvStallEnd
)

// NewController returns a quality adaptation controller for integration
// with a custom transport: feed it Tick/PickLayer/OnDelivered/OnBackoff.
// Stats counts its decisions; KeepEvents logs them in Events too.
func NewController(p Params) (*Controller, error) { return core.NewController(p) }

// Simulation types.
type (
	// SimConfig describes one simulated evaluation run.
	SimConfig = scenario.Config
	// SimResult carries traces, events, and statistics from a run.
	SimResult = scenario.Result
	// DropStats summarizes drop events (Tables 1 and 2 metrics).
	DropStats = core.DropStats
	// Series is a named time series collected during a run.
	Series = trace.Series
)

// Metrics types: the instrumentation layer shared by the simulator, the
// transports, and the UDP endpoints.
type (
	// MetricsRegistry owns named counters, gauges, and histograms.
	// Attach one to SimConfig.Metrics to instrument a run; sharing one
	// registry across runs aggregates their counts.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry, ready for
	// JSON encoding.
	MetricsSnapshot = metrics.Snapshot
	// RunReport is the structured JSON summary of one simulated run
	// (effective config, quality numbers, metrics snapshot).
	RunReport = scenario.RunReport
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Simulate runs one simulated scenario to completion.
func Simulate(cfg SimConfig) (*SimResult, error) { return scenario.Run(cfg) }

// SimulateAll runs independent scenarios concurrently on a bounded
// worker pool (workers <= 0 means one per CPU). Results come back in
// input order and are identical to sequential Simulate calls: each run
// owns its engine and seeded RNGs, so scheduling cannot change outcomes.
func SimulateAll(cfgs []SimConfig, workers int) ([]*SimResult, error) {
	return scenario.RunAll(cfgs, workers)
}

// PresetOption adjusts a named preset (see WithKmax, WithScale).
type PresetOption = scenario.PresetOption

// WithKmax sets a preset's smoothing factor (default 2).
func WithKmax(k int) PresetOption { return scenario.WithKmax(k) }

// WithScale multiplies a preset's bottleneck bandwidth and per-layer
// consumption rate (default 1; 8 reproduces the paper's figure axes).
func WithScale(s float64) PresetOption { return scenario.WithScale(s) }

// Preset builds a named evaluation setup ("T1", "T2", "SingleRAP",
// "SingleQA") with functional options:
//
//	cfg, err := qav.Preset("T1", qav.WithKmax(2), qav.WithScale(8))
func Preset(name string, opts ...PresetOption) (SimConfig, error) {
	return scenario.Preset(name, opts...)
}

// Presets returns the available preset names, sorted.
func Presets() []string { return scenario.Presets() }

// T1 returns the paper's first test: the QA flow sharing a bottleneck
// with 9 RAP and 10 Sack-TCP flows. scale=8 reproduces the paper's
// figure axes (C = 10 KB/s).
func T1(kmax int, scale float64) SimConfig {
	return scenario.MustPreset("T1", scenario.WithKmax(kmax), scenario.WithScale(scale))
}

// T2 returns T1 plus a CBR burst at half the bottleneck bandwidth
// between t=30s and t=60s (the responsiveness experiment).
func T2(kmax int, scale float64) SimConfig {
	return scenario.MustPreset("T2", scenario.WithKmax(kmax), scenario.WithScale(scale))
}

// SingleRAP returns the single-flow sawtooth demonstration (Fig 1).
func SingleRAP() SimConfig { return scenario.MustPreset("SingleRAP") }

// SingleQA returns a single quality-adaptive flow on a private
// bottleneck (Fig 2's filling/draining demonstration).
func SingleQA(kmax int) SimConfig {
	return scenario.MustPreset("SingleQA", scenario.WithKmax(kmax))
}

// Real-transport types: RAP + quality adaptation over UDP.
type (
	// ServerConfig parameterizes a UDP streaming server.
	ServerConfig = netio.MultiConfig
	// Server streams layered data over UDP to many clients at once, each
	// stream under its own RAP congestion control and quality adaptation.
	Server = netio.MultiServer
	// Client requests and acknowledges a UDP stream.
	Client = netio.Client
	// ClientStats summarizes what a client received per layer and, with
	// the playout model, what it could play, repaired and got twice.
	ClientStats = netio.ClientStats
	// PipeConfig describes one direction of an emulated network path.
	PipeConfig = netio.PipeConfig
	// Pipe is a UDP relay imposing bandwidth, delay, and loss.
	Pipe = netio.Pipe
	// RAPConfig parameterizes the RAP congestion control sender.
	RAPConfig = transport.RAPConfig
	// VideoConfig parameterizes the client-side playout model
	// (hierarchical decoding, startup buffering, stall accounting).
	VideoConfig = video.Config
	// PlaybackStats are the viewer-facing quality metrics the playout
	// model produces (decodable layer-seconds, stalls, per-layer gaps).
	PlaybackStats = video.Stats
)

// NewServer wraps a bound UDP socket in a one-shard streaming server.
// The socket stays caller-owned.
func NewServer(conn *net.UDPConn, cfg ServerConfig) (*Server, error) {
	return netio.NewMultiServerConns([]*net.UDPConn{conn}, cfg)
}

// DialStream connects to a server (or pipe), streams for dur, and
// returns the per-layer receive statistics.
func DialStream(ctx context.Context, addr string, dur time.Duration) (ClientStats, error) {
	cl, err := netio.Dial(addr)
	if err != nil {
		return ClientStats{}, err
	}
	defer cl.Close()
	if err := cl.Stream(ctx, dur); err != nil {
		return cl.Stats(), err
	}
	return cl.Stats(), nil
}

// NewPipe starts a bidirectional UDP relay with impairments; clients
// dial its Addr() instead of the server's.
func NewPipe(listenAddr, serverAddr string, up, down PipeConfig, seed int64) (*Pipe, error) {
	return netio.NewPipe(listenAddr, serverAddr, up, down, seed)
}

// DialVideoStream is DialStream with the playout model attached: the
// returned stats include decodable-quality metrics, and base-layer loss
// holes are repaired via selective retransmission NACKs (Retransmits
// counts the repairs, Duplicates the arrivals that added nothing).
func DialVideoStream(ctx context.Context, addr string, dur time.Duration, cfg VideoConfig) (ClientStats, error) {
	cl, err := netio.DialVideo(addr, cfg)
	if err != nil {
		return ClientStats{}, err
	}
	defer cl.Close()
	if err := cl.Stream(ctx, dur); err != nil {
		return cl.Stats(), err
	}
	return cl.Stats(), nil
}
