package core

import "math"

// The geometry (§2.4, Appendix A): after backoffs drop the transmission
// rate below the total consumption rate na·C, the deficit over time is a
// triangle of height H (the instantaneous rate shortfall) declining to
// zero at slope S. Its area H²/(2S) is the buffering required to keep all
// layers playing. The optimal inter-layer split slices that triangle into
// horizontal bands of thickness C: the bottom band (largest area) belongs
// to the base layer, the next to layer 1, and so on — buffered data in
// low layers stays useful even when higher layers are dropped.

// Band returns the optimal buffer share of layer i for a deficit triangle
// of height H: the area of the i-th horizontal band of thickness C.
// Bands sum exactly to H²/(2S).
func Band(H, C, S float64, i int) float64 {
	if H <= 0 || i < 0 {
		return 0
	}
	lo := float64(i) * C
	if H <= lo {
		return 0
	}
	hi := lo + C
	if H < hi {
		// Partial top band: a small triangle.
		d := H - lo
		return d * d / (2 * S)
	}
	// Full band: trapezoid between levels lo and hi.
	return C * (2*H - (2*float64(i)+1)*C) / (2 * S)
}

// TriangleArea returns the total buffering required to absorb a deficit
// triangle of height H with recovery slope S: H²/(2S).
func TriangleArea(H, S float64) float64 {
	if H <= 0 {
		return 0
	}
	return H * H / (2 * S)
}

// NumBufLayers returns n_b, the minimum number of layers that must hold
// buffering to absorb a deficit of height H (§2.4): ceil(H/C).
func NumBufLayers(H, C float64) int {
	if H <= 0 {
		return 0
	}
	return int(math.Ceil(H/C - 1e-12))
}

// K1 returns the minimum number of backoffs needed to drop rate R below
// the consumption rate naC (Appendix A.4). It is 0 when R is already
// below naC.
func K1(R, naC float64) int {
	if R < naC {
		return 0
	}
	k := 0
	for r := R; r >= naC; r /= 2 {
		k++
		if k > 64 {
			break // R/naC overflow guard; 2^64 halvings never happen
		}
	}
	return k
}

// Scenario identifies one of the two extreme multi-backoff loss patterns
// of §4 (Fig 7): Scenario1 = all k backoffs hit back-to-back at the start
// of the draining phase (needs the most buffering layers); Scenario2 =
// enough immediate backoffs to fall below the consumption rate, then each
// remaining backoff strikes just as the rate climbs back to na·C (needs
// the most total buffering).
type Scenario int

// The two extreme loss scenarios.
const (
	Scenario1 Scenario = 1
	Scenario2 Scenario = 2
)

// BufTotal returns the total buffering required to survive k backoffs
// under the given scenario with na active layers at transmission rate R
// (Appendix A.4). R may be below na·C (mid-drain): the current shortfall
// then counts as the first triangle with k1 = 0.
func BufTotal(s Scenario, R float64, na int, k int, C, S float64) float64 {
	if k < 0 || float64(na)*C <= 0 {
		return 0
	}
	g := newGeometry(R, na, C, S)
	return g.total(s, k)
}

// BufLayer returns the maximally efficient buffer share of layer i needed
// to survive k backoffs under the given scenario (Appendix A.5).
func BufLayer(s Scenario, R float64, na, k, i int, C, S float64) float64 {
	if k < 0 || i < 0 || i >= na {
		return 0
	}
	g := newGeometry(R, na, C, S)
	return g.layer(s, k, i)
}

// geometry holds the terms of Appendix A's formulas that do not depend on
// the number of backoffs k, for one rate R, na layers of rate C and slope
// S. Its methods are BufTotal and BufLayer for k >= 0, with the same
// operations in the same order, so callers that ask about many k (the
// SendPacket scan, the state ladder) compute K1 and the scenario-2
// triangles once and get bit-identical values.
type geometry struct {
	R, C, S float64
	na      int
	naC     float64
	k1      int     // K1(R, naC)
	h2      float64 // scenario 2's first deficit, naC - R/2^k1
	first2  float64 // its area
	half    float64 // naC/2: the deficit of each later scenario-2 backoff
	rest2   float64 // its area
}

func newGeometry(R float64, na int, C, S float64) geometry {
	g := geometry{R: R, C: C, S: S, na: na, naC: float64(na) * C}
	g.k1 = K1(R, g.naC)
	g.h2 = g.naC - math.Ldexp(R, -g.k1)
	g.first2 = TriangleArea(g.h2, S)
	g.half = g.naC / 2
	g.rest2 = TriangleArea(g.half, S)
	return g
}

// h1 is scenario 1's deficit after k back-to-back backoffs. R/2^k by
// exponent arithmetic is bit-identical to R/math.Pow(2, float64(k)) for
// every k a caller can pass (TestLdexpMatchesPowDivision), without Pow's
// cost on the per-packet path.
func (g *geometry) h1(k int) float64 { return g.naC - math.Ldexp(g.R, -k) }

func (g *geometry) total(s Scenario, k int) float64 {
	switch s {
	case Scenario1:
		return TriangleArea(g.h1(k), g.S)
	case Scenario2:
		if k < g.k1 {
			return 0
		}
		return g.first2 + float64(k-g.k1)*g.rest2
	default:
		panic("core: unknown scenario")
	}
}

func (g *geometry) layer(s Scenario, k, i int) float64 {
	switch s {
	case Scenario1:
		return Band(g.h1(k), g.C, g.S, i)
	case Scenario2:
		if k < g.k1 {
			return 0
		}
		return Band(g.h2, g.C, g.S, i) + float64(k-g.k1)*Band(g.half, g.C, g.S, i)
	default:
		panic("core: unknown scenario")
	}
}

// firstAbove is one of the SendPacket scan's two walks: the least k in
// [1, kmax] whose total requirement in scenario s exceeds total, with
// that requirement, or kmax and its requirement when none does (k = 0
// and requirement 0 when kmax < 1 or total < 0). For R >= 0 both totals,
// as computed, are non-decreasing in k (Ldexp is exact and rounding is
// monotone), so a binary search finds the k the walk upward found.
func (g *geometry) firstAbove(s Scenario, total float64, kmax int) (int, float64) {
	if kmax < 1 || !(0 <= total) {
		return 0, 0
	}
	lo, hi := 1, kmax
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.total(s, mid) <= total {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, g.total(s, lo)
}

// AddCondition reports whether §2.1's two conditions to add layer na+1
// hold with k-backoff smoothing (§3.1): the instantaneous rate sustains
// all layers plus the new one, and total buffering survives k backoffs at
// the enlarged consumption rate under whichever extreme scenario demands
// more.
func AddCondition(R float64, na int, totalBuf, C, S float64, k int) bool {
	newC := float64(na+1) * C
	if R < newC {
		return false
	}
	need := math.Max(
		BufTotal(Scenario1, R, na+1, k, C, S),
		BufTotal(Scenario2, R, na+1, k, C, S),
	)
	return totalBuf >= need
}

// DropCount returns how many layers must be dropped under §2.2's rule
// given post-backoff rate R and the per-layer buffer levels bufs (index 0
// = base layer): layers are shed highest-first until the recovery
// triangle fits in the buffering of the *surviving* layers — a dropped
// layer's buffered data no longer assists recovery. The base layer is
// never dropped.
func DropCount(R float64, bufs []float64, C, S float64) int {
	na := len(bufs)
	total := 0.0
	for _, b := range bufs {
		total += b
	}
	drops := 0
	for na-drops > 1 {
		h := float64(na-drops)*C - R
		if TriangleArea(h, S) <= total {
			break
		}
		total -= bufs[na-drops-1]
		drops++
	}
	return drops
}
