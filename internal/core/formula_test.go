package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const (
	tC = 1000.0  // bytes/s per layer
	tS = 20000.0 // bytes/s²
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBandBasicGeometry(t *testing.T) {
	// H = 2.5 layers worth of deficit: three buffering layers.
	H := 2.5 * tC
	if got := NumBufLayers(H, tC); got != 3 {
		t.Fatalf("NumBufLayers = %d, want 3", got)
	}
	b0 := Band(H, tC, tS, 0)
	b1 := Band(H, tC, tS, 1)
	b2 := Band(H, tC, tS, 2)
	b3 := Band(H, tC, tS, 3)
	if b3 != 0 {
		t.Fatalf("band above n_b = %v, want 0", b3)
	}
	if !(b0 > b1 && b1 > b2 && b2 > 0) {
		t.Fatalf("bands not decreasing: %v %v %v", b0, b1, b2)
	}
	// Top band is a pure triangle of height 0.5C.
	wantTop := (0.5 * tC) * (0.5 * tC) / (2 * tS)
	if !almostEq(b2, wantTop, 1e-9) {
		t.Fatalf("top band = %v, want %v", b2, wantTop)
	}
}

func TestBandsSumToTriangle(t *testing.T) {
	f := func(hRaw uint16) bool {
		H := float64(hRaw) // 0..65535 bytes/s deficit
		sum := 0.0
		for i := 0; i <= NumBufLayers(H, tC); i++ {
			sum += Band(H, tC, tS, i)
		}
		return almostEq(sum, TriangleArea(H, tS), 1e-6*math.Max(1, TriangleArea(H, tS)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBandMonotoneDecreasing(t *testing.T) {
	f := func(hRaw uint16) bool {
		H := float64(hRaw)
		prev := math.Inf(1)
		for i := 0; i < 70; i++ {
			b := Band(H, tC, tS, i)
			if b > prev+1e-9 {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBandEdgeCases(t *testing.T) {
	if Band(0, tC, tS, 0) != 0 {
		t.Error("zero deficit should need zero buffering")
	}
	if Band(-5, tC, tS, 0) != 0 {
		t.Error("negative deficit should need zero buffering")
	}
	if Band(500, tC, tS, -1) != 0 {
		t.Error("negative layer index should yield zero")
	}
	// Exactly one full band.
	H := tC
	if !almostEq(Band(H, tC, tS, 0), TriangleArea(H, tS), 1e-9) {
		t.Error("single-band deficit should be entirely the base layer's")
	}
	if Band(H, tC, tS, 1) != 0 {
		t.Error("layer 1 should hold nothing for a one-band deficit")
	}
}

func TestK1(t *testing.T) {
	cases := []struct {
		R, naC float64
		want   int
	}{
		{1000, 2000, 0},  // already below
		{2000, 2000, 1},  // equal: one halving needed (strictly below)
		{3000, 2000, 1},  // one halving: 1500 < 2000
		{4000, 2000, 2},  // 4000->2000->1000
		{16000, 2000, 4}, // 16->8->4->2->1 (strict)
		{15000, 2000, 3},
	}
	for _, c := range cases {
		if got := K1(c.R, c.naC); got != c.want {
			t.Errorf("K1(%v, %v) = %d, want %d", c.R, c.naC, got, c.want)
		}
	}
}

func TestBufTotalScenario1(t *testing.T) {
	// na=3, R=4000: one backoff leaves 2000 < 3000 -> H=1000.
	got := BufTotal(Scenario1, 4000, 3, 1, tC, tS)
	want := TriangleArea(3000-2000, tS)
	if !almostEq(got, want, 1e-9) {
		t.Fatalf("BufTotal s1 k=1 = %v, want %v", got, want)
	}
	// k=0 with R above consumption: no buffering needed.
	if BufTotal(Scenario1, 4000, 3, 0, tC, tS) != 0 {
		t.Fatal("no backoffs above consumption rate should need zero buffer")
	}
	// k below k1: rate stays above consumption.
	if BufTotal(Scenario1, 16000, 3, 1, tC, tS) != 0 {
		t.Fatal("one backoff from 16000 stays above 3000; want zero")
	}
}

func TestBufTotalScenario2Decomposition(t *testing.T) {
	// na=3 (naC=3000), R=4000, k=3: k1=1 (2000<3000), first triangle
	// height 1000, then two sequential triangles of height 1500.
	got := BufTotal(Scenario2, 4000, 3, 3, tC, tS)
	want := TriangleArea(1000, tS) + 2*TriangleArea(1500, tS)
	if !almostEq(got, want, 1e-9) {
		t.Fatalf("BufTotal s2 = %v, want %v", got, want)
	}
	// Scenarios agree at k = k1.
	s1 := BufTotal(Scenario1, 4000, 3, 1, tC, tS)
	s2 := BufTotal(Scenario2, 4000, 3, 1, tC, tS)
	if !almostEq(s1, s2, 1e-9) {
		t.Fatalf("scenarios differ at k=k1: %v vs %v", s1, s2)
	}
}

func TestBufTotalMonotoneInK(t *testing.T) {
	f := func(rRaw uint16, naRaw, kRaw uint8) bool {
		R := float64(rRaw) + 1
		na := int(naRaw)%6 + 1
		kmax := int(kRaw)%10 + 1
		for _, sc := range []Scenario{Scenario1, Scenario2} {
			prev := -1.0
			for k := 0; k <= kmax; k++ {
				tot := BufTotal(sc, R, na, k, tC, tS)
				if tot < prev-1e-9 {
					return false
				}
				prev = tot
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufLayerSumsToTotal(t *testing.T) {
	f := func(rRaw uint16, naRaw, kRaw uint8) bool {
		R := float64(rRaw) + 1
		na := int(naRaw)%6 + 1
		k := int(kRaw) % 8
		for _, sc := range []Scenario{Scenario1, Scenario2} {
			tot := BufTotal(sc, R, na, k, tC, tS)
			sum := 0.0
			for i := 0; i < na; i++ {
				sum += BufLayer(sc, R, na, k, i, tC, tS)
			}
			// Per-layer shares can sum to less than the total when the
			// deficit needs more buffering layers than exist (n_b > na);
			// never more.
			if sum > tot+1e-6 {
				return false
			}
			naC := float64(na) * tC
			var H float64
			if sc == Scenario1 {
				H = naC - R/math.Pow(2, float64(k))
			} else {
				H = math.Max(naC-R/math.Pow(2, float64(K1(R, naC))), naC/2)
			}
			if NumBufLayers(H, tC) <= na && !almostEq(sum, tot, 1e-6*math.Max(1, tot)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScenario1NeedsMoreBufferingLayers(t *testing.T) {
	// The paper's key observation (§4): scenario 1 spreads buffering over
	// more layers; scenario 2 concentrates more total in fewer layers.
	R, na, k := 8000.0, 4, 3
	nb1, nb2 := 0, 0
	for i := 0; i < na; i++ {
		if BufLayer(Scenario1, R, na, k, i, tC, tS) > 0 {
			nb1++
		}
		if BufLayer(Scenario2, R, na, k, i, tC, tS) > 0 {
			nb2++
		}
	}
	if nb1 < nb2 {
		t.Fatalf("scenario 1 uses %d buffering layers < scenario 2's %d", nb1, nb2)
	}
}

func TestAddCondition(t *testing.T) {
	// R comfortably above (na+1)C and plenty of buffer: addable.
	if !AddCondition(5000, 3, 1e9, tC, tS, 1) {
		t.Fatal("should add with huge buffer and sufficient rate")
	}
	// Rate below (na+1)C: never.
	if AddCondition(3500, 3, 1e9, tC, tS, 1) {
		t.Fatal("must not add when R < (na+1)C")
	}
	// Rate fine but buffer short of the k=1 requirement for na+1 layers.
	need := BufTotal(Scenario1, 5000, 4, 1, tC, tS)
	if AddCondition(5000, 3, need-1, tC, tS, 1) {
		t.Fatal("must not add just below the buffer requirement")
	}
	if !AddCondition(5000, 3, need, tC, tS, 1) {
		t.Fatal("should add exactly at the buffer requirement")
	}
}

func TestDropCount(t *testing.T) {
	// Post-backoff R=1000, 4 layers (naC=4000), no buffering at all:
	// required triangle for na layers is (na*1000-1000)²/2S; with zero
	// buffer we must drop down to the base layer.
	if got := DropCount(1000, []float64{0, 0, 0, 0}, tC, tS); got != 3 {
		t.Fatalf("DropCount zero-buffer = %d, want 3", got)
	}
	// Massive buffering: no drops.
	if got := DropCount(1000, []float64{1e9, 0, 0, 0}, tC, tS); got != 0 {
		t.Fatalf("DropCount huge-buffer = %d, want 0", got)
	}
	// Buffer exactly the 4-layer requirement: no drops.
	need4 := TriangleArea(4*tC-1000, tS)
	if got := DropCount(1000, []float64{need4, 0, 0, 0}, tC, tS); got != 0 {
		t.Fatalf("DropCount exact requirement = %d, want 0", got)
	}
	// §2.2 is a *total*-buffering criterion: even if all the buffering
	// sits in the top layer, no immediate drop is required (the misuse
	// surfaces later as a critical situation / poor-distribution drop).
	if got := DropCount(1000, []float64{0, 0, 0, need4}, tC, tS); got != 0 {
		t.Fatalf("DropCount top-heavy-but-sufficient = %d, want 0", got)
	}
	// Cascade: top layer holds slightly too little; dropping it discards
	// that buffer, so the insufficiency cascades down to the next check.
	need3after := TriangleArea(3*tC-1000, tS)
	bufs := []float64{need3after, 0, 0, need4 - need3after - 1}
	if got := DropCount(1000, bufs, tC, tS); got != 1 {
		t.Fatalf("DropCount cascade = %d, want 1", got)
	}
	// Everything in the doomed top layer: cascades all the way down.
	if got := DropCount(1000, []float64{0, 0, 0, need4 - 1}, tC, tS); got != 3 {
		t.Fatalf("DropCount full cascade = %d, want 3", got)
	}
}

func TestTriangleArea(t *testing.T) {
	if TriangleArea(0, tS) != 0 || TriangleArea(-1, tS) != 0 {
		t.Fatal("non-positive deficits need no buffering")
	}
	if !almostEq(TriangleArea(2000, tS), 2000*2000/(2*tS), 1e-9) {
		t.Fatal("triangle area formula mismatch")
	}
}

// TestLdexpMatchesPowDivision pins the rewrite of R/2^k in BufTotal,
// BufLayer and their N variants from R/math.Pow(2, float64(k)) to
// math.Ldexp(R, -k), and then to halved's multiply by a table entry:
// all are the correctly rounded value of R*2^-k, so they must agree bit
// for bit — over ordinary rates, over the whole exponent range (results
// that land in the subnormals or underflow to zero included), and on
// the special values. k stops at 1023: past it Pow overflows to +Inf
// and the quotient collapses to 0, and K1 never returns more than 65.
func TestLdexpMatchesPowDivision(t *testing.T) {
	check := func(R float64, k int) {
		t.Helper()
		want := R / math.Pow(2, float64(k))
		for _, got := range []float64{math.Ldexp(R, -k), halved(R, k)} {
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("R=%v (%#x) k=%d: got %v (%#x), Pow division %v (%#x)",
					R, math.Float64bits(R), k, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	rng := rand.New(rand.NewSource(1999))
	for i := 0; i < 2_000_000; i++ {
		// Rates as the controller sees them: bytes/s over twelve decades.
		check(math.Exp(rng.Float64()*28-4), rng.Intn(64))
	}
	for i := 0; i < 2_000_000; i++ {
		// Any bit pattern, any k that keeps Pow finite.
		check(math.Float64frombits(rng.Uint64()), rng.Intn(1024))
	}
	for i := 0; i < 5_000; i++ {
		// Every k of halved's table on tiny and subnormal R, where the
		// multiply rounds: the result is subnormal or underflows.
		R := math.Float64frombits(rng.Uint64() >> (1 + rng.Intn(12)))
		for k := 0; k < len(pow2neg); k++ {
			check(R, k)
		}
	}
	for _, R := range []float64{0, math.Copysign(0, -1), 1, -1, math.SmallestNonzeroFloat64, math.MaxFloat64,
		0x1p-1022, 0x1.fffffffffffffp-1023, 0x1.8p-1000, 0x1.fffffffffffffp-960, math.Inf(1), math.Inf(-1), math.NaN()} {
		for k := 0; k < 1024; k++ {
			check(R, k)
		}
	}
}
