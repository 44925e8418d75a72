package core

import "slices"

// State is one optimal buffer state on the maximally efficient path
// (Figs 8-10): the per-layer buffer targets required to survive K
// backoffs under Scen, made cumulative along the path so that filling
// never implies draining a previously filled layer.
type State struct {
	Scen  Scenario
	K     int
	Layer []float64 // per-layer target, index 0 = base layer
	Total float64   // sum of Layer
	// RawTotal is the formula total before the monotonic adjustment.
	RawTotal float64
}

// StateLadder builds the ordered sequence of optimal buffer states for
// na layers at rate R, covering k = kmin..kmax in both scenarios:
//
//  1. raw states are computed from the Appendix A formulas,
//  2. sorted by increasing total requirement (Fig 9), scenario 1 first
//     on ties (its distribution is the more flexible one),
//  3. per-layer targets are made monotonically non-decreasing along the
//     sequence (the running max), realizing §4.1's constraint that both
//     the total and every layer's buffering only grow while filling
//     (Fig 10).
//
// States whose raw total is zero (k too small to pull R below na·C) are
// omitted. kmin of 0 includes the "finish the current drain" state used
// by the draining allocator when R is already below na·C.
//
// The ladder is built as the draining allocator walks it, from the top
// state down (ladderWalk), and reversed.
func StateLadder(R float64, na, kmin, kmax int, C, S float64) []State {
	g := newGeometry(R, na, C, S)
	w := g.walkLadder(kmin, kmax, make([]float64, 3*max(na, 0)))
	var ladder []State
	for ; !w.done(); w.step() {
		st := w.top()
		st.Layer = make([]float64, na)
		w.targets(st.Layer)
		for _, v := range st.Layer {
			st.Total += v
		}
		ladder = append(ladder, st)
	}
	slices.Reverse(ladder)
	return ladder
}

// ladderWalk steps down StateLadder's ladder from its top state without
// building it. Each scenario's states are on the ladder in k order, their
// raw totals being non-decreasing in k as computed (see firstAbove), so
// the ladder is a merge of the two: stepping down, the state that leaves
// is the head with the larger raw total, the scenario-2 one on a tie
// (the ladder puts scenario 1 first). Each scenario's per-layer targets
// are non-decreasing in k too, so a state's running-max targets are, per
// layer, the larger of the two heads' raw targets.
type ladderWalk struct {
	g *geometry
	// The heads: the k of each scenario's top remaining state, below
	// lo1 (lo2) once the scenario has none left, and their raw totals.
	head1, head2, lo1, lo2 int
	t1, t2                 float64
	// row1 holds scenario 1's head's per-layer targets once stale1 is
	// false; first and rest hold each layer's two scenario-2 bands.
	row1, first, rest []float64
	stale1            bool
}

// walkLadder starts a walk down the ladder of g's states for k in
// [kmin, kmax], on scratch of at least 3·g.na floats.
func (g *geometry) walkLadder(kmin, kmax int, scratch []float64) ladderWalk {
	kmin = max(kmin, 0) // no state needs buffering for k < 0
	w := ladderWalk{g: g, head1: kmax, head2: kmax, lo1: kmin, lo2: max(kmin, g.k1)}
	if g.na <= 0 || kmax < kmin {
		w.head1, w.head2 = kmin-1, kmin-1
		return w
	}
	na := g.na
	w.row1, w.first, w.rest = scratch[:na], scratch[na:2*na], scratch[2*na:3*na]
	// A layer's two scenario-2 bands are the same for every k.
	for i := range w.first {
		w.first[i], w.rest[i] = Band(g.h2, g.C, g.S, i), Band(g.half, g.C, g.S, i)
	}
	w.seek1()
	w.seek2()
	return w
}

// seek1 makes head1 the head of scenario 1: its states are the k whose
// raw total is positive, a suffix of the range.
func (w *ladderWalk) seek1() {
	if w.head1 >= w.lo1 {
		if w.t1 = w.g.total(Scenario1, w.head1); !(w.t1 > 0) {
			w.head1 = w.lo1 - 1
		}
	}
	w.stale1 = true
}

// seek2 makes head2, or the first k below it with a state, the head of
// scenario 2. At k = K1 the scenario-2 state is the scenario-1 state
// again, and below K1 there is none: neither is on the ladder.
func (w *ladderWalk) seek2() {
	for ; w.head2 >= w.lo2; w.head2-- {
		w.t2 = w.g.total(Scenario2, w.head2)
		if w.t2 > 0 && w.t2 != w.g.total(Scenario1, w.head2) {
			return
		}
	}
}

// done reports whether no state is left.
func (w *ladderWalk) done() bool { return w.head1 < w.lo1 && w.head2 < w.lo2 }

// top2 reports whether the top state is scenario 2's head.
func (w *ladderWalk) top2() bool {
	return w.head2 >= w.lo2 && (w.head1 < w.lo1 || w.t2 >= w.t1)
}

// top returns the top state without its targets.
func (w *ladderWalk) top() State {
	if w.top2() {
		return State{Scen: Scenario2, K: w.head2, RawTotal: w.t2}
	}
	return State{Scen: Scenario1, K: w.head1, RawTotal: w.t1}
}

// step takes the top state off.
func (w *ladderWalk) step() {
	if w.top2() {
		w.head2--
		w.seek2()
		return
	}
	w.head1--
	w.seek1()
}

// targets writes the top state's per-layer targets, made monotone along
// the ladder, to dst (g.na entries).
func (w *ladderWalk) targets(dst []float64) {
	has1, has2 := w.head1 >= w.lo1, w.head2 >= w.lo2
	if has1 && w.stale1 {
		h := w.g.h1(w.head1)
		for i := range w.row1 {
			w.row1[i] = Band(h, w.g.C, w.g.S, i)
		}
		w.stale1 = false
	}
	n2 := float64(w.head2 - w.g.k1)
	for i := range dst {
		v := 0.0
		if has1 {
			v = w.row1[i]
		}
		if has2 {
			if v2 := w.first[i] + n2*w.rest[i]; !has1 || v < v2 {
				v = v2
			}
		}
		dst[i] = v
	}
}

// FillTarget implements the paper's per-packet SendPacket scan (§4.1):
// given the current per-layer buffering, it returns the layer whose
// buffer the transmission surplus should currently extend, or ok=false
// when every target up to kmax in both scenarios is satisfied.
//
// The scan finds, in each scenario, the first state whose *total*
// requirement exceeds the available buffering, works toward whichever of
// the two needs less, and fills the lowest layer below its per-layer
// target in that state. While scenario-1 states remain unsatisfied, a
// layer is never filled beyond its next scenario-1 target (the paper's
// clamp keeping scenario-2 allocations inside the scenario-1 envelope).
// R must not be negative.
func FillTarget(R float64, bufs []float64, C, S float64, kmax int) (layer int, ok bool) {
	if len(bufs) == 0 {
		return 0, false
	}
	g := newGeometry(R, len(bufs), C, S)
	return g.fillTarget(bufs, kmax)
}

// fillTarget is FillTarget over g; len(bufs) is g.na.
func (g *geometry) fillTarget(bufs []float64, kmax int) (layer int, ok bool) {
	total := 0.0
	for _, b := range bufs {
		total += b
	}
	// The first state of each scenario whose total exceeds the buffering.
	k1n, bufReq1 := g.firstAbove(Scenario1, total, kmax)
	k2n, bufReq2 := g.firstAbove(Scenario2, total, kmax)
	s1Done := bufReq1 <= total // all scenario-1 states up to kmax satisfied
	s2Done := bufReq2 <= total
	if s1Done && s2Done {
		return 0, false
	}

	const eps = 1e-9
	workS1 := !s1Done && (s2Done || bufReq1 <= bufReq2)
	h1 := g.h1(k1n)
	for i, b := range bufs {
		short1 := Band(h1, g.C, g.S, i) > b+eps
		if workS1 {
			if short1 {
				return i, true
			}
		} else if g.layer(Scenario2, k2n, i) > b+eps && (s1Done || short1) {
			return i, true
		}
	}
	// Totals said unsatisfied but every layer met its per-layer target:
	// numerical corner (monotone adjustment exceeding raw totals). Top
	// up the base layer; it is always the most valuable.
	return 0, true
}
