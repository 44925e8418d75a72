package core

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
func StateLadder(R float64, na, kmin, kmax int, C, S float64) []State {
	return AppendStateLadder(nil, R, na, kmin, kmax, C, S)
}

// AppendStateLadder is StateLadder reusing dst's backing storage — the
// returned slice and the Layer slices of its entries are recycled, so a
// caller that rebuilds the ladder on every backoff (the serving path's
// draining allocator) holds the heap steady. The result aliases dst and
// is valid until the next call with the same dst.
func AppendStateLadder(dst []State, R float64, na, kmin, kmax int, C, S float64) []State {
	g := newGeometry(R, na, C, S)
	return g.appendLadder(dst, kmin, kmax)
}

// appendLadder is AppendStateLadder over g.
func (g *geometry) appendLadder(dst []State, kmin, kmax int) []State {
	raw := dst[:0]
	na := g.na
	if na <= 0 || kmax < kmin {
		return raw
	}
	kmin = max(kmin, 0) // no state needs buffering for k < 0
	for k := kmin; k <= kmax; k++ {
		t1 := g.total(Scenario1, k)
		if t1 > 0 {
			raw = appendState(raw, State{Scen: Scenario1, K: k, RawTotal: t1}, na)
			h := g.h1(k)
			for i, layer := 0, raw[len(raw)-1].Layer; i < na; i++ {
				layer[i] = Band(h, g.C, g.S, i)
			}
		}
		// For k <= k1 scenario 2 is the scenario-1 state again: skip it.
		if t2 := g.total(Scenario2, k); t2 > 0 && t2 != t1 {
			raw = appendState(raw, State{Scen: Scenario2, K: k, RawTotal: t2}, na)
		}
	}
	// A layer's two scenario-2 bands are the same for every k: take them
	// once per layer and fill that layer of every scenario-2 state.
	for i := 0; i < na; i++ {
		first, rest := Band(g.h2, g.C, g.S, i), Band(g.half, g.C, g.S, i)
		for j := range raw {
			if raw[j].Scen == Scenario2 {
				raw[j].Layer[i] = first + float64(raw[j].K-g.k1)*rest
			}
		}
	}
	// Stable insertion sort by (RawTotal, Scen): the ladder holds at
	// most 2·(kmax-kmin+1) entries, and avoiding sort.SliceStable keeps
	// the reflection-based swapper off the hot path.
	for i := 1; i < len(raw); i++ {
		for j := i; j > 0 && stateLess(&raw[j], &raw[j-1]); j-- {
			raw[j], raw[j-1] = raw[j-1], raw[j]
		}
	}
	// Monotonic per-layer adjustment; the previous entry's adjusted
	// targets are exactly the running max.
	for idx := range raw {
		tot := 0.0
		for i := 0; i < na; i++ {
			v := raw[idx].Layer[i]
			if idx > 0 && v < raw[idx-1].Layer[i] {
				v = raw[idx-1].Layer[i]
				raw[idx].Layer[i] = v
			}
			tot += v
		}
		raw[idx].Total = tot
	}
	return raw
}

// appendState appends st with an na-long Layer, recycling the slice of
// the entry the append evicts from raw's backing array.
func appendState(raw []State, st State, na int) []State {
	if n := len(raw); n < cap(raw) {
		st.Layer = raw[:n+1][n].Layer
	}
	if cap(st.Layer) < na {
		st.Layer = make([]float64, na)
	}
	st.Layer = st.Layer[:na]
	return append(raw, st)
}

func stateLess(a, b *State) bool {
	if a.RawTotal != b.RawTotal {
		return a.RawTotal < b.RawTotal
	}
	return a.Scen < b.Scen
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
