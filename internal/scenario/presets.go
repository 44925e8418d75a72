package scenario

import (
	"fmt"
	"sort"

	"qav/internal/core"
	"qav/internal/transport"
)

// presetOpts are the knobs a preset builder consumes. Options mutate
// this struct; builders read it.
type presetOpts struct {
	kmax      int
	scale     float64
	flows     int
	fluid     int
	transport transport.Kind
}

// PresetOption adjusts a preset's parameters; see WithKmax and
// WithScale.
type PresetOption func(*presetOpts)

// WithKmax sets the quality adaptation smoothing factor (default 2).
// Ignored by presets without a QA flow (SingleRAP).
func WithKmax(k int) PresetOption { return func(o *presetOpts) { o.kmax = k } }

// WithScale multiplies the bottleneck bandwidth and per-layer
// consumption rate (default 1). Scale 8 reproduces the paper's
// published figure axes (C = 10 KB/s). Ignored by the single-flow
// presets, whose bottlenecks are fixed by their figures.
func WithScale(s float64) PresetOption { return func(o *presetOpts) { o.scale = s } }

// WithFlows sets the total flow population of the Fleet preset (half QA
// flows, half Sack-TCP; default 100). The bottleneck capacity and queue
// scale with the flow count so each flow's fair share stays constant.
// Ignored by the fixed-population paper presets.
func WithFlows(n int) PresetOption { return func(o *presetOpts) { o.flows = n } }

// WithFluidFlows adds n hybrid background flows to the Fleet preset —
// half modeled as an aggregate TCP class, half as an aggregate RAP
// class (fluid AIMD rate processes, not packet-level; see DESIGN.md,
// "Hybrid fluid/packet simulation"). The bottleneck capacity and queue
// scale with the fluid population too, keeping every flow's fair share
// constant, so a hybrid Fleet is directly comparable to a pure packet
// Fleet of the same total population. Default 0: a pure packet-level
// run with a byte-identical config. Ignored by the fixed-population
// paper presets.
func WithFluidFlows(n int) PresetOption { return func(o *presetOpts) { o.fluid = n } }

// WithTransport selects the congestion-control backend for the preset's
// QA and cross-traffic flows (default transport.KindRAP). Non-default
// backends are recorded in the config name ("T1(Kmax=2)+delay") so A/B
// sweeps sharing a report file stay distinguishable.
func WithTransport(k transport.Kind) PresetOption {
	return func(o *presetOpts) { o.transport = k }
}

// presets maps preset names to builders. Builders receive validated
// options and must return a complete config (Run still normalizes it).
var presets = map[string]func(presetOpts) Config{
	"T1":        presetT1,
	"T2":        presetT2,
	"SingleRAP": presetSingleRAP,
	"SingleQA":  presetSingleQA,
	"Fleet":     presetFleet,
}

// Presets returns the available preset names, sorted.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Preset builds a named evaluation setup:
//
//   - "T1": the QA flow with 9 RAP and 10 Sack-TCP flows through an
//     800 Kb/s, 40 ms RTT bottleneck (Fig 11)
//   - "T2": T1 plus a CBR burst at half the bottleneck bandwidth
//     between 30 s and 60 s (Fig 13)
//   - "SingleRAP": one RAP flow alone on a small bottleneck (Fig 1)
//   - "SingleQA": one QA flow alone on a bottleneck sized for about
//     two layers (Fig 2)
//
// Options default to Kmax 2 and scale 1:
//
//	cfg, err := scenario.Preset("T1", scenario.WithKmax(2), scenario.WithScale(8))
func Preset(name string, opts ...PresetOption) (Config, error) {
	build, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("scenario: unknown preset %q (have %v)", name, Presets())
	}
	o := presetOpts{kmax: 2, scale: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.kmax < 1 {
		return Config{}, fmt.Errorf("scenario: preset %q: Kmax must be >= 1, got %d", name, o.kmax)
	}
	if o.scale <= 0 {
		return Config{}, fmt.Errorf("scenario: preset %q: scale must be positive, got %v", name, o.scale)
	}
	if o.flows < 0 {
		return Config{}, fmt.Errorf("scenario: preset %q: flows must be >= 0, got %d", name, o.flows)
	}
	if o.fluid < 0 {
		return Config{}, fmt.Errorf("scenario: preset %q: fluid flows must be >= 0, got %d", name, o.fluid)
	}
	kind, err := transport.ParseKind(string(o.transport))
	if err != nil {
		return Config{}, fmt.Errorf("scenario: preset %q: %v", name, err)
	}
	cfg := build(o)
	cfg.Transport = kind
	if kind != transport.KindRAP {
		// The default backend keeps historical names byte-stable; A/B
		// legs self-identify.
		cfg.Name += "+" + string(kind)
	}
	return cfg, nil
}

// MustPreset is Preset, panicking on error; for static configurations
// whose names and options are known good.
func MustPreset(name string, opts ...PresetOption) Config {
	cfg, err := Preset(name, opts...)
	if err != nil {
		panic(err)
	}
	return cfg
}

// presetT1 is the paper's first test: the QA flow with 9 more RAP flows
// and 10 Sack-TCP flows through an 800 Kb/s, 40 ms RTT bottleneck
// (Fig 11). The per-layer consumption rate is a quarter of the 20-flow
// fair share, so the QA flow rides at roughly 2-4 active layers like
// the paper's trace. The scale multiplies the bottleneck (and C) to
// reproduce the paper's published axis values (scale 8 ≈ C of 10 KB/s).
func presetT1(o presetOpts) Config {
	rate := 100_000.0 * o.scale // 800 Kb/s in bytes/s
	fair := rate / 20
	return Config{
		Name:           fmt.Sprintf("T1(Kmax=%d)", o.kmax),
		BottleneckRate: rate,
		LinkDelay:      0.010,
		AccessDelay:    0.005,
		QueueBytes:     int(rate * 0.12), // ~2.4 RTT of buffering
		PacketSize:     512,
		NumTCP:         10,
		NumRAP:         9,
		NumQA:          1,
		QA: core.Params{
			C:          fair / 4,
			Kmax:       o.kmax,
			MaxLayers:  8,
			StartupSec: 1.0,
		},
		Duration:       120,
		SampleInterval: 0.1,
	}
}

// presetT2 is T1 plus a CBR burst at half the bottleneck bandwidth
// between 30 s and 60 s (Fig 13's responsiveness experiment).
func presetT2(o presetOpts) Config {
	cfg := presetT1(o)
	cfg.Name = fmt.Sprintf("T2(Kmax=%d)", o.kmax)
	cfg.CBRRate = cfg.BottleneckRate / 2
	cfg.CBRStart = 30
	cfg.CBRStop = 60
	cfg.Duration = 90
	return cfg
}

// presetFleet is the many-flow workload: half quality-adaptive flows,
// half Sack-TCP, sharing one dumbbell whose capacity and buffering
// scale with the population so each flow's fair share (5 KB/s × scale,
// T1's share) is flow-count-invariant. Per-flow tracing is capped
// (MaxTraceFlows) and fleet aggregates are emitted, so trace cost does
// not grow with the population; runs are kept short (30 s) because the
// event rate scales with the flow count.
func presetFleet(o presetOpts) Config {
	flows := o.flows
	if flows == 0 {
		flows = 100
	}
	nQA := flows / 2
	nTCP := flows - nQA
	fluidTCP := o.fluid / 2
	fluidRAP := o.fluid - fluidTCP
	fair := 5_000.0 * o.scale
	rate := fair * float64(flows+o.fluid)
	// Pure packet Fleets keep their historical name byte-stable; hybrid
	// runs self-identify.
	name := fmt.Sprintf("Fleet(flows=%d,Kmax=%d)", flows, o.kmax)
	if o.fluid > 0 {
		name = fmt.Sprintf("Fleet(flows=%d,fluid=%d,Kmax=%d)", flows, o.fluid, o.kmax)
	}
	return Config{
		Name:           name,
		BottleneckRate: rate,
		LinkDelay:      0.010,
		AccessDelay:    0.005,
		QueueBytes:     int(rate * 0.06), // ~1.2 RTT: a tight buffer keeps the fleet probing
		PacketSize:     512,
		NumTCP:         nTCP,
		NumQA:          nQA,
		FluidTCP:       fluidTCP,
		FluidRAP:       fluidRAP,
		QA: core.Params{
			C:          fair / 4,
			Kmax:       o.kmax,
			MaxLayers:  8,
			StartupSec: 1.0,
		},
		Duration:       30,
		SampleInterval: 0.1,
		MaxTraceFlows:  4,
	}
}

// presetSingleRAP is Fig 1's setup: one RAP flow alone on a small
// bottleneck, showing the sawtooth.
func presetSingleRAP(presetOpts) Config {
	return Config{
		Name:           "SingleRAP",
		BottleneckRate: 12_000, // ~12 KB/s, like Fig 1's axis
		LinkDelay:      0.010,
		AccessDelay:    0.005,
		QueueBytes:     4 * 512,
		PacketSize:     512,
		NumRAP:         1,
		Duration:       40,
		SampleInterval: 0.05,
	}
}

// presetSingleQA is Fig 2's conceptual setup: one QA flow alone on a
// bottleneck sized for about two layers, so individual filling/draining
// phases are visible.
func presetSingleQA(o presetOpts) Config {
	return Config{
		Name:           "SingleQA",
		BottleneckRate: 12_000,
		LinkDelay:      0.010,
		AccessDelay:    0.005,
		QueueBytes:     4 * 512,
		PacketSize:     512,
		NumQA:          1,
		QA: core.Params{
			C:          3_000,
			Kmax:       o.kmax,
			MaxLayers:  8,
			StartupSec: 1.0,
		},
		Duration:       60,
		SampleInterval: 0.05,
	}
}
