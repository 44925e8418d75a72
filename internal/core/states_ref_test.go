package core

import (
	"fmt"
	"math"
	"math/rand"
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
// grows), FillTarget, and the ladder (into one recycled destination, as
// the controller builds it). It returns the first difference, or "".
func diffFormulas(tc formulaCase, dst *[]State) string {
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
	for _, kmin := range []int{0, 1}[:1+tc.kmax%2] {
		want := stateLadderRef(tc.R, na, kmin, tc.kmax, tc.C, tc.S)
		*dst = AppendStateLadder(*dst, tc.R, na, kmin, tc.kmax, tc.C, tc.S)
		got := *dst
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
	var dst []State
	rng := rand.New(rand.NewSource(64))
	for it := 0; it < iters; it++ {
		tc := randomFormulaCase(rng)
		if d := diffFormulas(tc, &dst); d != "" {
			t.Fatalf("iter %d R=%v C=%v S=%v kmax=%d bufs=%v: %s", it, tc.R, tc.C, tc.S, tc.kmax, tc.bufs, d)
		}
	}

	const C, S = 1000.0, 20000.0
	for na := 1; na <= 8; na++ {
		naC := float64(na) * C
		for _, kmax := range []int{-1, 0, 1, 3, 8, maxKmax + extraStates} {
			// k1 = 0 (R below, and at zero) and the K1 boundary: R an
			// exact power-of-two multiple of naC, and one ulp either side.
			rates := []float64{0, naC / 3, naC}
			for m := 0; m < 10; m++ {
				r := math.Ldexp(naC, m)
				rates = append(rates, r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1)))
			}
			for _, R := range rates {
				tc := formulaCase{R: R, C: C, S: S, bufs: make([]float64, na), kmax: kmax}
				if d := diffFormulas(tc, &dst); d != "" {
					t.Fatalf("R=%v na=%d kmax=%d: %s", R, na, kmax, d)
				}
				// Total buffering exactly equal to every requirement the
				// scan can stop at, in either scenario, and one ulp under.
				for k := 0; k <= kmax; k++ {
					for _, sc := range []Scenario{Scenario1, Scenario2} {
						need := bufTotalRef(sc, R, na, k, C, S)
						for _, b := range []float64{need, math.Nextafter(need, 0)} {
							tc.bufs[0] = b
							if d := diffFillTarget(tc); d != "" {
								t.Fatalf("R=%v na=%d kmax=%d bufs=%v: %s", R, na, kmax, tc.bufs, d)
							}
						}
					}
				}
			}
		}
	}
}
