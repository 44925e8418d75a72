package core

// DrainPlan distributes need bytes of buffer draining across layers for
// one planning horizon, realizing §4.2: the maximally efficient path is
// walked in reverse, so the highest layers' buffers are drained first,
// no layer is drained below its share at the preceding optimal state,
// and no layer is drained faster than it can be consumed (maxPerLayer =
// C × horizon bytes).
//
// ladder must be ascending (as returned by StateLadder). The returned
// drains has len(bufs) entries; unmet is the portion of need that could
// not be covered even after draining every layer to zero at full
// consumption rate — a critical situation (§2.2) requiring layer drops.
func DrainPlan(ladder []State, bufs []float64, need, maxPerLayer float64) (drains []float64, unmet float64) {
	drains = make([]float64, len(bufs))
	if need <= 0 {
		return drains, 0
	}
	// Pass floors from the top state down to zero floors; passes whose
	// floors the buffers already sit below contribute nothing, so the
	// walk implicitly starts at the current position on the path.
	for m := len(ladder); m >= 0 && need > 0; m-- {
		var floors []float64
		if m > 0 {
			floors = ladder[m-1].Layer
		}
		need = drainPass(drains, bufs, floors, need, maxPerLayer)
	}
	return drains, need
}

// drain is DrainPlan(StateLadder(g.R, g.na, 0, kmax, g.C, g.S), bufs,
// need, maxPerLayer) without the ladder: it walks down the ladder
// (ladderWalk), one pass per state in DrainPlan's order with its
// arithmetic, so its drains and unmet have DrainPlan's bits
// (TestDrainWalkDifferential). kmax < 0 is the empty ladder: one pass
// with zero floors. len(bufs) must be g.na, and scratch must hold 5·g.na
// floats; drains aliases it, so a caller reuses it across calls.
func (g *geometry) drain(scratch, bufs []float64, kmax int, need, maxPerLayer float64) (drains []float64, unmet float64) {
	na := len(bufs)
	drains, floors := scratch[:na], scratch[na:2*na]
	clear(drains)
	if need <= 0 {
		return drains, 0
	}
	w := g.walkLadder(0, kmax, scratch[2*na:5*na])
	for ; need > 0; w.step() {
		if w.done() {
			return drains, drainPass(drains, bufs, nil, need, maxPerLayer)
		}
		w.targets(floors)
		need = drainPass(drains, bufs, floors, need, maxPerLayer)
	}
	return drains, need
}

// drainPass is one pass of the reverse walk, top layer first: each
// layer gives what it holds above its floor (zero without floors), at
// most maxPerLayer in all passes together, until need is met. It adds
// the takes to drains and returns what is left of need.
func drainPass(drains, bufs, floors []float64, need, maxPerLayer float64) float64 {
	for i := len(bufs) - 1; i >= 0 && need > 0; i-- {
		floor := 0.0
		if floors != nil && i < len(floors) {
			floor = floors[i]
		}
		avail := bufs[i] - drains[i] - floor
		if avail <= 0 {
			continue
		}
		room := maxPerLayer - drains[i]
		if room <= 0 {
			continue
		}
		take := avail
		if take > room {
			take = room
		}
		if take > need {
			take = need
		}
		drains[i] += take
		need -= take
	}
	return need
}
