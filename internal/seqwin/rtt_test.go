package seqwin

import "testing"

// TestRTTSeedSampleAndFloor: the seed holds until the first sample, the
// first sample sets SRTT and RTTVAR = sample/2, later ones smooth by 1/8
// and 1/4, and the RTO never falls under MinRTO once sampled.
func TestRTTSeedSampleAndFloor(t *testing.T) {
	initial, first, second := 0.1, 0.04, 0.08 // variables: float64 arithmetic, not exact constants
	e := NewRTT(initial)
	if e.SRTT() != initial || e.RTO() != 3*initial {
		t.Fatalf("seeded SRTT %v RTO %v, want %v and %v", e.SRTT(), e.RTO(), initial, 3*initial)
	}
	if e.Sample(0) || e.Sample(-1) || e.SRTT() != initial {
		t.Fatalf("a non-positive sample moved the estimate: SRTT %v", e.SRTT())
	}
	if !e.Sample(first) || e.SRTT() != first || e.RTO() != first+4*(first/2) {
		t.Fatalf("first sample: SRTT %v RTO %v, want %v and %v", e.SRTT(), e.RTO(), first, first+4*(first/2))
	}
	e.Sample(second)
	rttvar := (1-0.25)*(first/2) + 0.25*(second-first)
	srtt := (1-0.125)*first + 0.125*second
	if e.SRTT() != srtt || e.RTO() != srtt+4*rttvar {
		t.Fatalf("second sample: SRTT %v RTO %v, want %v and %v", e.SRTT(), e.RTO(), srtt, srtt+4*rttvar)
	}
	for range 100 {
		e.Sample(0.001)
	}
	if e.RTO() != MinRTO {
		t.Fatalf("1 ms path: RTO %v, want the %v floor", e.RTO(), MinRTO)
	}
	steady := NewRTT(0.1)
	for range 100 {
		steady.Sample(0.05)
	}
	if steady.RTO() != 2*steady.SRTT() {
		t.Fatalf("steady 50 ms path: RTO %v, want 2·SRTT = %v", steady.RTO(), 2*steady.SRTT())
	}
}
