package rap

import (
	"math"
	"testing"
)

func TestFineGrainDisabledIsNeutral(t *testing.T) {
	s := NewSender(Config{PacketSize: 512, InitialRTT: 0.04})
	for i := 0; i < 50; i++ {
		q := s.OnSend(float64(i) * 0.01)
		s.OnAck(float64(i)*0.01+0.04+float64(i)*0.002, q) // growing RTT
	}
	if got := s.FineGrainFactor(); got != 1 {
		t.Fatalf("disabled fine grain factor = %v, want 1", got)
	}
	wantIPG := 512.0 / s.Rate()
	if math.Abs(s.IPG()-wantIPG) > 1e-12 {
		t.Fatalf("IPG %v != base %v with fine grain off", s.IPG(), wantIPG)
	}
}

func TestFineGrainSlowsOnRisingRTT(t *testing.T) {
	s := NewSender(Config{PacketSize: 512, InitialRTT: 0.04, FineGrain: true})
	// Stable RTT first: factor ~1.
	now := 0.0
	for i := 0; i < 100; i++ {
		q := s.OnSend(now)
		s.OnAck(now+0.04, q)
		now += 0.01
	}
	if f := s.FineGrainFactor(); math.Abs(f-1) > 0.01 {
		t.Fatalf("stable RTT factor = %v, want ~1", f)
	}
	// RTT ramps up (queue building): short average rises faster than the
	// long one, so the factor must exceed 1 (sender eases off).
	rtt := 0.04
	for i := 0; i < 30; i++ {
		rtt += 0.004
		q := s.OnSend(now)
		s.OnAck(now+rtt, q)
		now += 0.01
	}
	if f := s.FineGrainFactor(); f <= 1.02 {
		t.Fatalf("rising RTT factor = %v, want > 1", f)
	}
	if s.IPG() <= 512.0/s.Rate() {
		t.Fatal("IPG did not stretch under rising RTT")
	}
}

func TestFineGrainSpeedsOnFallingRTT(t *testing.T) {
	s := NewSender(Config{PacketSize: 512, InitialRTT: 0.2, FineGrain: true})
	now := 0.0
	rtt := 0.2
	for i := 0; i < 100; i++ {
		q := s.OnSend(now)
		s.OnAck(now+rtt, q)
		now += 0.01
	}
	// Queue draining: RTT falls, short average undershoots the long one.
	for i := 0; i < 30; i++ {
		rtt = math.Max(0.05, rtt-0.01)
		q := s.OnSend(now)
		s.OnAck(now+rtt, q)
		now += 0.01
	}
	if f := s.FineGrainFactor(); f >= 0.98 {
		t.Fatalf("falling RTT factor = %v, want < 1", f)
	}
}

func TestFineGrainFactorClamped(t *testing.T) {
	const fgMin, fgMax = 0.5, 2.0 // the RAP paper's clamp
	s := NewSender(Config{PacketSize: 512, InitialRTT: 0.01, FineGrain: true})
	now := 0.0
	// Violent RTT explosion.
	for i := 0; i < 50; i++ {
		q := s.OnSend(now)
		s.OnAck(now+0.01+float64(i)*0.05, q)
		now += 0.01
	}
	if f := s.FineGrainFactor(); f > fgMax+1e-12 {
		t.Fatalf("factor %v exceeds clamp %v", f, fgMax)
	}
	// Violent collapse.
	s2 := NewSender(Config{PacketSize: 512, InitialRTT: 1, FineGrain: true})
	now = 0.0
	for i := 0; i < 5; i++ {
		q := s2.OnSend(now)
		s2.OnAck(now+1, q)
		now += 0.1
	}
	for i := 0; i < 50; i++ {
		q := s2.OnSend(now)
		s2.OnAck(now+0.001, q)
		now += 0.1
	}
	if f := s2.FineGrainFactor(); f < fgMin-1e-12 {
		t.Fatalf("factor %v below clamp %v", f, fgMin)
	}
}
