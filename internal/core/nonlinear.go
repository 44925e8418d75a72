package core

import (
	"math"
	"sort"
)

// Non-linear layer spacing (the paper's §7 future work: "quality
// adaptation with a non-linear distribution of bandwidth among layers").
// The geometry of §2.4 generalizes directly: the deficit triangle is
// sliced into horizontal bands whose thicknesses are the individual
// layer rates, bottom band = base layer. All invariants of the linear
// case carry over (bands sum to the triangle area; lower layers hold
// more per unit of rate); what is lost is the paper's closed-form
// n_b and the uniform-step state pictures.
//
// The Controller itself follows the paper's linear analysis; these
// functions provide the generalized planning math for codecs with
// unequal layer rates (e.g. exponentially spaced enhancement layers).

// BandN returns the optimal buffer share of layer i for a deficit
// triangle of height H when layer j consumes rates[j] bytes/s: the area
// of the horizontal band between cumulative rate levels
// sum(rates[:i]) and sum(rates[:i+1]).
func BandN(H float64, rates []float64, S float64, i int) float64 {
	if H <= 0 || i < 0 || i >= len(rates) {
		return 0
	}
	lo := 0.0
	for j := 0; j < i; j++ {
		lo += rates[j]
	}
	hi := lo + rates[i]
	if H <= lo {
		return 0
	}
	if H < hi {
		d := H - lo
		return d * d / (2 * S)
	}
	// Full trapezoid between levels lo and hi.
	return (rates[i] * (2*H - lo - hi)) / (2 * S)
}

// TotalRateN returns the aggregate consumption rate of the layer set.
func TotalRateN(rates []float64) float64 {
	t := 0.0
	for _, r := range rates {
		t += r
	}
	return t
}

// BufTotalN is BufTotal generalized to unequal layer rates.
func BufTotalN(s Scenario, R float64, rates []float64, k int, S float64) float64 {
	naC := TotalRateN(rates)
	if k < 0 || naC <= 0 {
		return 0
	}
	switch s {
	case Scenario1:
		return TriangleArea(naC-math.Ldexp(R, -k), S)
	case Scenario2:
		k1 := K1(R, naC)
		if k < k1 {
			return 0
		}
		first := TriangleArea(naC-math.Ldexp(R, -k1), S)
		return first + float64(k-k1)*TriangleArea(naC/2, S)
	default:
		panic("core: unknown scenario")
	}
}

// BufLayerN is BufLayer generalized to unequal layer rates.
func BufLayerN(s Scenario, R float64, rates []float64, k, i int, S float64) float64 {
	naC := TotalRateN(rates)
	if k < 0 || i < 0 || i >= len(rates) {
		return 0
	}
	switch s {
	case Scenario1:
		return BandN(naC-math.Ldexp(R, -k), rates, S, i)
	case Scenario2:
		k1 := K1(R, naC)
		if k < k1 {
			return 0
		}
		first := BandN(naC-math.Ldexp(R, -k1), rates, S, i)
		return first + float64(k-k1)*BandN(naC/2, rates, S, i)
	default:
		panic("core: unknown scenario")
	}
}

// StateLadderN builds the maximally efficient state sequence for
// unequal layer rates, with the same ordering and per-layer
// monotonicity rules as StateLadder.
func StateLadderN(R float64, rates []float64, kmin, kmax int, S float64) []State {
	na := len(rates)
	if na == 0 || kmax < kmin {
		return nil
	}
	var raw []State
	for k := kmin; k <= kmax; k++ {
		for _, sc := range []Scenario{Scenario1, Scenario2} {
			tot := BufTotalN(sc, R, rates, k, S)
			if tot <= 0 {
				continue
			}
			if sc == Scenario2 && BufTotalN(Scenario1, R, rates, k, S) == tot {
				continue
			}
			st := State{Scen: sc, K: k, RawTotal: tot, Layer: make([]float64, na)}
			for i := 0; i < na; i++ {
				st.Layer[i] = BufLayerN(sc, R, rates, k, i, S)
			}
			raw = append(raw, st)
		}
	}
	sort.SliceStable(raw, func(i, j int) bool {
		if raw[i].RawTotal != raw[j].RawTotal {
			return raw[i].RawTotal < raw[j].RawTotal
		}
		return raw[i].Scen < raw[j].Scen
	})
	prev := make([]float64, na)
	for idx := range raw {
		tot := 0.0
		for i := 0; i < na; i++ {
			if raw[idx].Layer[i] < prev[i] {
				raw[idx].Layer[i] = prev[i]
			}
			prev[i] = raw[idx].Layer[i]
			tot += raw[idx].Layer[i]
		}
		raw[idx].Total = tot
	}
	return raw
}

// DropCountN generalizes §2.2's drop rule to unequal layer rates:
// layers are shed highest-first until the recovery triangle for the
// surviving set fits in the surviving buffering.
func DropCountN(R float64, rates, bufs []float64, S float64) int {
	if len(rates) != len(bufs) {
		panic("core: rates/bufs length mismatch")
	}
	na := len(rates)
	total := 0.0
	cons := TotalRateN(rates)
	for _, b := range bufs {
		total += b
	}
	drops := 0
	for na-drops > 1 {
		h := cons - R
		if TriangleArea(h, S) <= total {
			break
		}
		total -= bufs[na-drops-1]
		cons -= rates[na-drops-1]
		drops++
	}
	return drops
}
