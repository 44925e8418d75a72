// Package core implements the paper's quality adaptation mechanism for
// layered video over an AIMD congestion controlled transport: the
// buffer-requirement formulas for single- and multiple-backoff scenarios
// (§2.4, §4.1, Appendix A), the maximally efficient state sequence
// (Figs 8-10), the per-packet filling allocator (§4.1's SendPacket), the
// reverse-path draining allocator (§4.2), and the coarse-grain layer
// add/drop rules (§2.1, §2.2) with smoothing factor Kmax (§3).
//
// Conventions: rates are bytes/s, buffering is bytes, time is seconds,
// and S is the AIMD additive-increase slope in bytes/s². Layers are
// linearly spaced: every layer consumes C bytes/s (the paper's analysis
// assumption).
package core

import (
	"fmt"
	"math"
)

// Allocation selects the inter-layer buffer allocation policy. The
// paper's contribution is the optimal policy; the other two are the
// strawmen §2.3 argues against, kept for the ablation benches.
type Allocation int

const (
	// AllocOptimal follows the maximally efficient path (the paper).
	AllocOptimal Allocation = iota
	// AllocEqual spreads surplus toward equal per-layer buffering
	// (§2.3's "dropping layers with buffered data" strawman).
	AllocEqual
	// AllocBase sends all surplus to the base layer (§2.3's
	// "insufficient distribution of buffered data" strawman).
	AllocBase
)

func (a Allocation) String() string {
	switch a {
	case AllocOptimal:
		return "optimal"
	case AllocEqual:
		return "equal"
	case AllocBase:
		return "base-only"
	default:
		return "?"
	}
}

// Fixed choices of this implementation that no run varies (DESIGN.md,
// "Parameterization notes").
const (
	// planHorizon is the draining allocator's planning horizon, seconds;
	// the cached allocation is refreshed at least every planHorizon/5.
	planHorizon float64 = 0.05
	// extraStates lets buffers keep growing past Kmax while the adding
	// condition's rate test fails (the paper's 2.9-layer modem example):
	// scenario-2 states up to Kmax+extraStates are pursued.
	extraStates = 24
	// addSpacing is the minimum time, seconds, between a layer change and
	// a subsequent add. Until the first RTT sample the slope estimate is
	// arbitrary, and §2.1 warns against several layers being added per
	// congestion-control cycle; spacing bounds the damage.
	addSpacing float64 = 0.5
	// protectSec keeps at least this many seconds of data buffered in
	// every active layer once the Kmax targets are met, before surplus
	// chases the deeper (bottom-heavy) states. Buffer draining is bounded
	// per layer by the consumption rate C, so a top layer with zero
	// buffer starves in deep multi-backoff dips no matter how much the
	// base layer holds; a small reserve prevents exactly the "poor
	// distribution" drops Table 2 counts.
	protectSec float64 = 0.5
	// maxKmax bounds Kmax, as K1's own guard bounds the backoffs it
	// counts: per-packet work and the drain ladder grow with Kmax, and
	// 2^-64 of any rate is no deficit worth buffering for.
	maxKmax = 64
)

// Params configures a quality adaptation controller.
type Params struct {
	// C is the per-layer consumption rate in bytes/s.
	C float64
	// Kmax is the smoothing factor: the number of backoffs worth of
	// buffering accumulated before a new layer is added (§3.1).
	Kmax int
	// MaxLayers bounds the number of encoded layers available.
	MaxLayers int
	// StartupSec is how many seconds of base-layer data must be buffered
	// before playback starts.
	StartupSec float64
	// Alloc selects the inter-layer buffer allocation policy (the
	// default AllocOptimal is the paper's contribution; the others are
	// §2.3's strawmen for ablations).
	Alloc Allocation
	// MaxEvents bounds the decision log: past the cap the oldest half
	// is discarded, keeping recent history. Zero keeps the full log
	// (the simulator's default, for event dumps and figures); a
	// long-running server sets a cap so a churning stream cannot grow
	// memory without bound. Stats counts every decision either way.
	MaxEvents int
}

// Normalize fills the zero fields that have defaults (Kmax 2, MaxLayers
// 8, StartupSec 1 s) and checks the result. NewController applies it to
// its own copy; scenario.Config.Normalize applies it in place, so a run
// report's config is what the controller ran.
func (p *Params) Normalize() error {
	if p.Kmax == 0 {
		p.Kmax = 2
	}
	if p.MaxLayers == 0 {
		p.MaxLayers = 8
	}
	if p.StartupSec == 0 {
		p.StartupSec = 1.0
	}
	// The negated comparisons also reject NaN, which fails every test.
	switch {
	case !(p.C > 0) || math.IsInf(p.C, 1):
		return fmt.Errorf("core: C must be positive and finite, got %v", p.C)
	case p.Kmax < 1 || p.Kmax > maxKmax:
		return fmt.Errorf("core: Kmax must be in [1, %d], got %d", maxKmax, p.Kmax)
	case p.MaxLayers < 1:
		return fmt.Errorf("core: MaxLayers must be >= 1, got %d", p.MaxLayers)
	case math.IsNaN(p.StartupSec) || math.IsInf(p.StartupSec, 0):
		return fmt.Errorf("core: StartupSec must be finite, got %v", p.StartupSec)
	}
	return nil
}
