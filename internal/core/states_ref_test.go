package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The SendPacket scan and the state ladder as they were before the
// geometry hoisted the k-independent terms and binary search replaced
// the scan's two walks up k: the pre-change code verbatim, kept as the
// reference TestFormulaDifferential compares the shipped code with, bit
// for bit.

func bufTotalRef(s Scenario, R float64, na int, k int, C, S float64) float64 {
	naC := float64(na) * C
	if k < 0 || naC <= 0 {
		return 0
	}
	switch s {
	case Scenario1:
		h := naC - math.Ldexp(R, -k)
		return TriangleArea(h, S)
	case Scenario2:
		k1 := K1(R, naC)
		if k < k1 {
			return 0
		}
		first := TriangleArea(naC-math.Ldexp(R, -k1), S)
		rest := float64(k-k1) * TriangleArea(naC/2, S)
		return first + rest
	default:
		panic("core: unknown scenario")
	}
}

func bufLayerRef(s Scenario, R float64, na, k, i int, C, S float64) float64 {
	naC := float64(na) * C
	if k < 0 || i < 0 || i >= na {
		return 0
	}
	switch s {
	case Scenario1:
		h := naC - math.Ldexp(R, -k)
		return Band(h, C, S, i)
	case Scenario2:
		k1 := K1(R, naC)
		if k < k1 {
			return 0
		}
		first := Band(naC-math.Ldexp(R, -k1), C, S, i)
		rest := float64(k-k1) * Band(naC/2, C, S, i)
		return first + rest
	default:
		panic("core: unknown scenario")
	}
}

func stateLadderRef(R float64, na, kmin, kmax int, C, S float64) []State {
	var raw []State
	if na <= 0 || kmax < kmin {
		return raw
	}
	for k := kmin; k <= kmax; k++ {
		for _, sc := range []Scenario{Scenario1, Scenario2} {
			tot := bufTotalRef(sc, R, na, k, C, S)
			if tot <= 0 {
				continue
			}
			if sc == Scenario2 && bufTotalRef(Scenario1, R, na, k, C, S) == tot {
				continue
			}
			layer := make([]float64, na)
			for i := 0; i < na; i++ {
				layer[i] = bufLayerRef(sc, R, na, k, i, C, S)
			}
			raw = append(raw, State{Scen: sc, K: k, RawTotal: tot, Layer: layer})
		}
	}
	// Stable insertion sort by (RawTotal, Scen).
	for i := 1; i < len(raw); i++ {
		for j := i; j > 0 && stateLess(&raw[j], &raw[j-1]); j-- {
			raw[j], raw[j-1] = raw[j-1], raw[j]
		}
	}
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

func stateLess(a, b *State) bool {
	if a.RawTotal != b.RawTotal {
		return a.RawTotal < b.RawTotal
	}
	return a.Scen < b.Scen
}

func fillTargetRef(R float64, bufs []float64, C, S float64, kmax int) (layer int, ok bool) {
	na := len(bufs)
	if na == 0 {
		return 0, false
	}
	total := 0.0
	for _, b := range bufs {
		total += b
	}

	k1n, bufReq1 := 0, 0.0
	for bufReq1 <= total && k1n < kmax {
		k1n++
		bufReq1 = bufTotalRef(Scenario1, R, na, k1n, C, S)
	}
	s1Done := bufReq1 <= total

	k2n, bufReq2 := 0, 0.0
	for bufReq2 <= total && k2n < kmax {
		k2n++
		bufReq2 = bufTotalRef(Scenario2, R, na, k2n, C, S)
	}
	s2Done := bufReq2 <= total

	if s1Done && s2Done {
		return 0, false
	}

	const eps = 1e-9
	workS1 := !s1Done && (s2Done || bufReq1 <= bufReq2)
	for i := 0; i < na; i++ {
		l1 := bufLayerRef(Scenario1, R, na, k1n, i, C, S)
		l2 := bufLayerRef(Scenario2, R, na, k2n, i, C, S)
		if workS1 {
			if l1 > bufs[i]+eps {
				return i, true
			}
		} else {
			if l2 > bufs[i]+eps && (s1Done || l1 > bufs[i]+eps) {
				return i, true
			}
		}
	}
	return 0, true
}

// formulaCase is one input to the differential comparison.
type formulaCase struct {
	R, C, S float64
	bufs    []float64
	kmax    int
}

// diffFillTarget compares FillTarget with the reference on one input.
func diffFillTarget(tc formulaCase) string {
	wl, wok := fillTargetRef(tc.R, tc.bufs, tc.C, tc.S, tc.kmax)
	if gl, gok := FillTarget(tc.R, tc.bufs, tc.C, tc.S, tc.kmax); gl != wl || gok != wok {
		return fmt.Sprintf("FillTarget = (%d, %v), reference (%d, %v)", gl, gok, wl, wok)
	}
	return ""
}

// diffFormulas compares the shipped formulas with the references on one
// input: BufTotal and BufLayer for k from -1 past kmax (sparser as k
// grows), FillTarget, and the ladder. It returns the first difference,
// or "".
func diffFormulas(tc formulaCase) string {
	na := len(tc.bufs)
	bits := math.Float64bits
	for k := -1; k <= tc.kmax+1; k += 1 + k/8 {
		for _, sc := range []Scenario{Scenario1, Scenario2} {
			if w, g := bufTotalRef(sc, tc.R, na, k, tc.C, tc.S), BufTotal(sc, tc.R, na, k, tc.C, tc.S); bits(w) != bits(g) {
				return fmt.Sprintf("BufTotal(%v, k=%d) = %v, reference %v", sc, k, g, w)
			}
			for i := -1; i <= na; i++ {
				if w, g := bufLayerRef(sc, tc.R, na, k, i, tc.C, tc.S), BufLayer(sc, tc.R, na, k, i, tc.C, tc.S); bits(w) != bits(g) {
					return fmt.Sprintf("BufLayer(%v, k=%d, i=%d) = %v, reference %v", sc, k, i, g, w)
				}
			}
		}
	}
	if d := diffFillTarget(tc); d != "" {
		return d
	}
	// AddCondition at each k, on buffering equal to its requirement and
	// one ulp either side, against the two-BufTotal form.
	sum := 0.0
	for _, b := range tc.bufs {
		sum += b
	}
	for k := -1; k <= tc.kmax+1; k++ {
		need := math.Max(bufTotalRef(Scenario1, tc.R, na+1, k, tc.C, tc.S), bufTotalRef(Scenario2, tc.R, na+1, k, tc.C, tc.S))
		for _, b := range []float64{0, need, math.Nextafter(need, 0), math.Nextafter(need, math.Inf(1)), sum} {
			if w, g := tc.R >= float64(na+1)*tc.C && b >= need, AddCondition(tc.R, na, b, tc.C, tc.S, k); w != g {
				return fmt.Sprintf("AddCondition(k=%d, buf=%v) = %v, reference %v", k, b, g, w)
			}
		}
	}
	for _, kmin := range []int{0, 1}[:1+tc.kmax%2] {
		want := stateLadderRef(tc.R, na, kmin, tc.kmax, tc.C, tc.S)
		got := StateLadder(tc.R, na, kmin, tc.kmax, tc.C, tc.S)
		if len(got) != len(want) {
			return fmt.Sprintf("ladder kmin %d has %d states, reference %d", kmin, len(got), len(want))
		}
		for j := range want {
			w, g := want[j], got[j]
			if g.Scen != w.Scen || g.K != w.K || bits(g.RawTotal) != bits(w.RawTotal) || bits(g.Total) != bits(w.Total) || len(g.Layer) != len(w.Layer) {
				return fmt.Sprintf("ladder kmin %d state %d = %+v, reference %+v", kmin, j, g, w)
			}
			for i := range w.Layer {
				if bits(g.Layer[i]) != bits(w.Layer[i]) {
					return fmt.Sprintf("ladder kmin %d state %d layer %d = %v, reference %v", kmin, j, i, g.Layer[i], w.Layer[i])
				}
			}
		}
	}
	return ""
}

// randomFormulaCase draws rates over several decades, up to MaxLayers'
// default 8 layers, kmax mostly small but up to the bound plus the
// extra states, and buffering that is empty, arbitrary, equal to a
// requirement the scan compares against, or a ladder state's targets.
func randomFormulaCase(rng *rand.Rand) formulaCase {
	tc := formulaCase{
		C:    math.Exp(rng.Float64()*8 + 3), // ~20 B/s .. 60 kB/s
		S:    math.Exp(rng.Float64()*12 + 2),
		kmax: rng.Intn(10) + 1,
	}
	if rng.Intn(4) == 0 {
		tc.kmax = rng.Intn(maxKmax+extraStates) + 1
	}
	na := rng.Intn(8) + 1
	naC := float64(na) * tc.C
	switch rng.Intn(4) {
	case 0: // below consumption: k1 = 0
		tc.R = naC * rng.Float64()
	case 1: // an exact power-of-two multiple: the K1 boundary
		tc.R = math.Ldexp(naC, rng.Intn(12))
	default:
		tc.R = naC * math.Exp(rng.Float64()*8-2)
	}
	tc.bufs = make([]float64, na)
	switch rng.Intn(4) {
	case 0: // empty
	case 1: // buffering exactly at a requirement: the scan's <=
		k := rng.Intn(tc.kmax + 1)
		tc.bufs[0] = bufTotalRef(Scenario(1+rng.Intn(2)), tc.R, na, k, tc.C, tc.S)
	case 2: // a ladder state's targets
		if l := stateLadderRef(tc.R, na, 0, tc.kmax, tc.C, tc.S); len(l) > 0 {
			copy(tc.bufs, l[rng.Intn(len(l))].Layer)
		}
	default:
		scale := bufTotalRef(Scenario2, tc.R, na, rng.Intn(tc.kmax+1), tc.C, tc.S) + 1
		for i := range tc.bufs {
			tc.bufs[i] = rng.Float64() * scale / float64(na)
		}
	}
	return tc
}

// TestFormulaDifferential holds the hoisted formulas, the binary-searched
// SendPacket scan and the ladder built on them to the pre-change code,
// requiring the same bits, over randomized inputs and directed edges.
func TestFormulaDifferential(t *testing.T) {
	iters := 10_000
	if testing.Short() {
		iters = 1_000
	}
	rng := rand.New(rand.NewSource(64))
	for it := 0; it < iters; it++ {
		tc := randomFormulaCase(rng)
		if d := diffFormulas(tc); d != "" {
			t.Fatalf("iter %d R=%v C=%v S=%v kmax=%d bufs=%v: %s", it, tc.R, tc.C, tc.S, tc.kmax, tc.bufs, d)
		}
	}

	formulaEdges(func(tc formulaCase) {
		if d := diffFormulas(tc); d != "" {
			t.Fatalf("R=%v na=%d kmax=%d: %s", tc.R, len(tc.bufs), tc.kmax, d)
		}
		// Total buffering exactly equal to every requirement the scan can
		// stop at, in either scenario, and one ulp under.
		for k := 0; k <= tc.kmax; k++ {
			for _, sc := range []Scenario{Scenario1, Scenario2} {
				need := bufTotalRef(sc, tc.R, len(tc.bufs), k, tc.C, tc.S)
				for _, b := range []float64{need, math.Nextafter(need, 0)} {
					tc.bufs[0] = b
					if d := diffFillTarget(tc); d != "" {
						t.Fatalf("R=%v kmax=%d bufs=%v: %s", tc.R, tc.kmax, tc.bufs, d)
					}
				}
			}
		}
	})
}

// formulaEdges calls f with the directed edges: every na up to 8, kmax
// around its bounds, and rates with k1 = 0 (R below na·C, and at zero)
// or at the K1 boundary (R an exact power-of-two multiple of na·C, and
// one ulp either side), with empty buffers.
func formulaEdges(f func(formulaCase)) {
	const C, S = 1000.0, 20000.0
	for na := 1; na <= 8; na++ {
		naC := float64(na) * C
		rates := []float64{0, naC / 3, naC}
		for m := 0; m < 10; m++ {
			r := math.Ldexp(naC, m)
			rates = append(rates, r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1)))
		}
		for _, kmax := range []int{-1, 0, 1, 3, 8, maxKmax + extraStates} {
			for _, R := range rates {
				f(formulaCase{R: R, C: C, S: S, bufs: make([]float64, na), kmax: kmax})
			}
		}
	}
}

// addMeetsFill checks, at tc's rate, slope, kmax and layer count, that
// buffering AddCondition accepts leaves FillTarget nothing to fill: at
// tc's buffers, and at the add requirement and one ulp either side of
// it, on the base layer or spread evenly. It returns how many of those
// AddCondition accepted, and the first failure.
func addMeetsFill(tc formulaCase) (held int, fail string) {
	na := len(tc.bufs)
	need := math.Max(bufTotalRef(Scenario1, tc.R, na+1, tc.kmax, tc.C, tc.S), bufTotalRef(Scenario2, tc.R, na+1, tc.kmax, tc.C, tc.S))
	cands := [][]float64{tc.bufs}
	for _, b := range []float64{need, math.Nextafter(need, 0), math.Nextafter(need, math.Inf(1))} {
		base, even := make([]float64, na), make([]float64, na)
		base[0] = b
		for i := range even {
			even[i] = b / float64(na)
		}
		cands = append(cands, base, even)
	}
	for _, bufs := range cands {
		total := 0.0
		for _, b := range bufs {
			total += b
		}
		if !AddCondition(tc.R, na, total, tc.C, tc.S, tc.kmax) {
			continue
		}
		held++
		if layer, ok := FillTarget(tc.R, bufs, tc.C, tc.S, tc.kmax); ok {
			return held, fmt.Sprintf("bufs %v meet AddCondition, yet FillTarget fills layer %d", bufs, layer)
		}
	}
	return held, ""
}

// The add rule needs no fill-target check of its own: AddCondition asks
// for the Kmax totals of na+1 layers in both scenarios, which exceed the
// totals of the na layers every fill target up to Kmax adds up to.
func TestAddConditionMeetsFillTargets(t *testing.T) {
	held := 0
	check := func(tc formulaCase) {
		n, fail := addMeetsFill(tc)
		if fail != "" {
			t.Fatalf("R=%v C=%v S=%v kmax=%d: %s", tc.R, tc.C, tc.S, tc.kmax, fail)
		}
		held += n
	}
	rng := rand.New(rand.NewSource(65))
	for it := 0; it < 20_000; it++ {
		check(randomFormulaCase(rng))
	}
	formulaEdges(func(tc formulaCase) {
		check(tc)
		if na := len(tc.bufs); na > 1 { // the K1 boundary of the added layer
			tc.bufs = tc.bufs[:na-1]
			check(tc)
		}
	})
	if held < 50_000 {
		t.Fatalf("AddCondition held on only %d inputs", held)
	}
	t.Logf("AddCondition held on %d inputs; FillTarget had nothing to fill on each", held)
}

// drainTakes runs DrainPlan's passes on ladder with need unbounded and
// returns every take in the order the passes make them: their prefix
// sums are the needs met exactly mid-pass.
func drainTakes(ladder []State, bufs []float64, maxPerLayer float64) []float64 {
	drains := make([]float64, len(bufs))
	var takes []float64
	for m := len(ladder); m >= 0; m-- {
		for i := len(bufs) - 1; i >= 0; i-- {
			floor := 0.0
			if m > 0 {
				floor = ladder[m-1].Layer[i]
			}
			if avail, room := bufs[i]-drains[i]-floor, maxPerLayer-drains[i]; avail > 0 && room > 0 {
				take := min(avail, room)
				drains[i] += take
				takes = append(takes, take)
			}
		}
	}
	return takes
}

// drainCase is one input to the drain walk's differential comparison,
// with its reference ladder.
type drainCase struct {
	R, C, S           float64
	bufs              []float64
	kmax              int
	need, maxPerLayer float64
	ladder            []State // stateLadderRef(R, len(bufs), 0, kmax, C, S)
}

// diffDrain compares the drain walk with DrainPlan on the reference
// ladder of tc, and the walk without a ladder (kmax -1, the strawman
// policies) with DrainPlan on none, bit for bit. The walk reuses scratch
// as the controller reuses its own. It returns the first difference, or
// "".
func diffDrain(tc drainCase, scratch []float64) string {
	g := newGeometry(tc.R, len(tc.bufs), tc.C, tc.S)
	bits := math.Float64bits
	for _, kmax := range []int{tc.kmax, -1} {
		var ladder []State
		if kmax == tc.kmax {
			ladder = tc.ladder
		}
		want, wantUnmet := DrainPlan(ladder, tc.bufs, tc.need, tc.maxPerLayer)
		got, gotUnmet := g.drain(scratch, tc.bufs, kmax, tc.need, tc.maxPerLayer)
		if bits(gotUnmet) != bits(wantUnmet) || len(got) != len(want) {
			return fmt.Sprintf("kmax %d: unmet %v, DrainPlan %v", kmax, gotUnmet, wantUnmet)
		}
		for i := range want {
			if bits(got[i]) != bits(want[i]) {
				return fmt.Sprintf("kmax %d: drains %v, DrainPlan %v", kmax, got, want)
			}
		}
	}
	return ""
}

// drainInputs calls f with tc at buffers and needs around tc's ladder:
// a sample of the states' targets (the floors of a pass), one ulp either
// side, and tc's own buffers, each with needs that a prefix of the takes
// meets exactly mid-pass, none, and more than the buffers hold, under a
// per-layer cap that binds and one that does not.
func drainInputs(tc formulaCase, rng *rand.Rand, f func(drainCase)) {
	na := len(tc.bufs)
	ladder := stateLadderRef(tc.R, na, 0, tc.kmax, tc.C, tc.S)
	cands := [][]float64{tc.bufs}
	for j := 0; j < min(len(ladder), 2); j++ {
		st := ladder[rng.Intn(len(ladder))]
		for _, dir := range []float64{0, math.Inf(-1), math.Inf(1)} {
			b := slices.Clone(st.Layer)
			if dir != 0 {
				for i := range b {
					b[i] = math.Nextafter(b[i], dir)
				}
			}
			cands = append(cands, b)
		}
	}
	for _, bufs := range cands {
		total := 0.0
		for _, b := range bufs {
			total += b
		}
		for _, maxPerLayer := range []float64{math.Inf(1), total / float64(2*na), rng.Float64() * total} {
			needs := []float64{0, -1, 2*total + 1, rng.Float64() * total}
			takes := drainTakes(ladder, bufs, maxPerLayer)
			sum := 0.0
			for j, take := range takes {
				sum += take
				if j < 2 || rng.Intn(len(takes)) < 3 {
					needs = append(needs, sum)
				}
			}
			for _, need := range needs {
				f(drainCase{R: tc.R, C: tc.C, S: tc.S, bufs: bufs, kmax: tc.kmax, need: need, maxPerLayer: maxPerLayer, ladder: ladder})
			}
		}
	}
}

// TestDrainWalkDifferential holds the controller's drain walk to
// DrainPlan on the pre-change ladder, requiring the same bits, over
// randomized inputs (na ≤ 8, Kmax ≤ 64) and directed edges: ties between
// the scenarios' totals, k1 = 0, Kmax 0, 1 and 64, and deficits at a
// band boundary and a few ulps either side.
func TestDrainWalkDifferential(t *testing.T) {
	scratch := make([]float64, 5*8)
	check := func(tc formulaCase, rng *rand.Rand) {
		t.Helper()
		drainInputs(tc, rng, func(dc drainCase) {
			if d := diffDrain(dc, scratch); d != "" {
				t.Fatalf("R=%v C=%v S=%v kmax=%d bufs=%v need=%v maxPerLayer=%v: %s",
					dc.R, dc.C, dc.S, dc.kmax, dc.bufs, dc.need, dc.maxPerLayer, d)
			}
		})
	}
	iters := 2_000
	if testing.Short() {
		iters = 300
	}
	rng := rand.New(rand.NewSource(66))
	for it := 0; it < iters; it++ {
		tc := randomFormulaCase(rng)
		tc.kmax = min(tc.kmax, maxKmax)
		check(tc, rng)
	}

	// Ties: at R = na·C/2 scenario 2's k = 3 state needs (na·C)²/(2S),
	// and so does every scenario-1 state whose R/2^k rounds off na·C. At
	// a power-of-two scale all of it is exact.
	ties := 0
	for _, na := range []int{1, 2, 3, 4} {
		for _, scale := range []float64{0x1p-3, 1, 0x1p10} {
			tc := formulaCase{R: float64(na) * scale, C: 2 * scale, S: 0.5 * scale * scale, bufs: make([]float64, na), kmax: maxKmax}
			ladder := stateLadderRef(tc.R, na, 0, tc.kmax, tc.C, tc.S)
			for j := 1; j < len(ladder); j++ {
				if ladder[j].RawTotal == ladder[j-1].RawTotal && ladder[j].Scen != ladder[j-1].Scen {
					ties++
				}
			}
			check(tc, rng)
		}
	}
	if ties == 0 {
		t.Fatal("no ladder with a tie between the scenarios")
	}

	// k1 = 0, the K1 boundary, and Kmax -1 to 64.
	formulaEdges(func(tc formulaCase) {
		tc.kmax = min(tc.kmax, maxKmax)
		check(tc, rng)
	})

	// Scenario 1's deficit at layer i's lower band boundary i·C at
	// k = 0..3, and up to three ulps either side, at an exact C and one
	// whose multiples round.
	for _, C := range []float64{1000, 0.3} {
		for na := 2; na <= 8; na++ {
			for i := 1; i < na; i++ {
				for k := 0; k <= 3; k++ {
					R := math.Ldexp(float64(na-i)*C, k)
					for _, d := range []int{-3, -2, -1, 0, 1, 2, 3} {
						r := R
						for ; d < 0; d++ {
							r = math.Nextafter(r, 0)
						}
						for ; d > 0; d-- {
							r = math.Nextafter(r, math.Inf(1))
						}
						check(formulaCase{R: r, C: C, S: 7 * C, bufs: make([]float64, na), kmax: 8}, rng)
					}
				}
			}
		}
	}
}
