package video

import (
	"math"
	"testing"
)

func newRx(t *testing.T) *Receiver {
	t.Helper()
	r, err := NewReceiver(Config{C: 1000, MaxLayers: 4, StartupBytes: 500})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReceiverStartupGate(t *testing.T) {
	r := newRx(t)
	r.Deliver(0, 0, 0, 400) // below startup threshold
	r.Advance(1)
	if r.Playing() {
		t.Fatal("played before startup buffering")
	}
	r.Deliver(1, 0, 400, 200) // crosses 500 contiguous
	r.Advance(1.1)
	if !r.Playing() {
		t.Fatal("did not start after startup buffering")
	}
}

func TestReceiverConsumesAndStallsAtFrontier(t *testing.T) {
	r := newRx(t)
	r.Deliver(0, 0, 0, 1000) // one second of base layer
	r.Advance(2.0)           // try to play two seconds
	st := r.Stats()
	if math.Abs(st.PlayedSec-1.0) > 0.11 {
		t.Fatalf("played %.2fs, want ~1.0", st.PlayedSec)
	}
	if st.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1 at the data frontier", st.Stalls)
	}
	// Deliver more: playback resumes.
	r.Deliver(2.0, 0, 1000, 2000)
	r.Advance(3.0)
	if r.Stats().Stalls != 1 || !r.Playing() {
		t.Fatalf("did not resume: %+v", r.Stats())
	}
}

func TestReceiverDecodingConstraint(t *testing.T) {
	r := newRx(t)
	// Base layer complete for 2 s; layer 1 only for the first second;
	// layer 2 present for the second second — but undecodable there
	// because layer 1 is missing.
	r.Deliver(0, 0, 0, 2000)
	r.Deliver(0, 1, 0, 1000)
	r.Deliver(0, 2, 1000, 1000)
	r.Advance(2.0)
	st := r.Stats()
	if math.Abs(st.LayerPlayedSec[0]-2.0) > 0.11 {
		t.Fatalf("base played %.2f, want ~2", st.LayerPlayedSec[0])
	}
	if math.Abs(st.LayerPlayedSec[1]-1.0) > 0.11 {
		t.Fatalf("layer1 played %.2f, want ~1", st.LayerPlayedSec[1])
	}
	if st.LayerPlayedSec[2] != 0 {
		t.Fatalf("layer2 played %.2f despite missing layer1", st.LayerPlayedSec[2])
	}
	if st.LayerGapSec[2] < 0.9 {
		t.Fatalf("layer2 gap %.2f, want ~2 (undecodable while present)", st.LayerGapSec[2])
	}
	// Quality integral: 2s of L0 + 1s of L1 ~= 3 layer-seconds.
	if math.Abs(st.DecodableLayerSec-3.0) > 0.25 {
		t.Fatalf("decodable layer-seconds %.2f, want ~3", st.DecodableLayerSec)
	}
}

func TestReceiverGlitchSkipsLossHole(t *testing.T) {
	r := newRx(t)
	// Base layer with a 100-byte loss hole at offset 1000.
	r.Deliver(0, 0, 0, 1000)
	r.Deliver(0, 0, 1100, 1900)
	r.Advance(3.0)
	st := r.Stats()
	// Playback continues across the hole (error concealment), with no
	// stall; total played ~3s, base decodable ~2.9s.
	if st.Stalls != 0 {
		t.Fatalf("stalled %d times on a bounded loss hole", st.Stalls)
	}
	if math.Abs(st.PlayedSec-3.0) > 0.11 {
		t.Fatalf("played %.2f, want ~3 (glitch skipped)", st.PlayedSec)
	}
	if st.LayerGapSec[0] < 0.05 || st.LayerGapSec[0] > 0.2 {
		t.Fatalf("base gap %.2f, want ~0.1 (one lost slot)", st.LayerGapSec[0])
	}
}

func TestReceiverBufferedBytes(t *testing.T) {
	r := newRx(t)
	r.Deliver(0, 0, 0, 1000)
	r.Deliver(0, 0, 1200, 300) // hole at [1000,1200)
	if got := r.BufferedBytes(0); got != 1000 {
		t.Fatalf("BufferedBytes = %d, want 1000 (up to the hole)", got)
	}
	if got := r.BufferedBytes(1); got != 0 {
		t.Fatalf("layer1 BufferedBytes = %d, want 0", got)
	}
	if got := r.BufferedBytes(9); got != 0 {
		t.Fatal("out-of-range layer must report 0")
	}
}

func TestReceiverIgnoresForeignLayers(t *testing.T) {
	r := newRx(t)
	r.Deliver(0, 99, 0, 1000)
	r.Deliver(0, -1, 0, 1000)
	r.Advance(1)
	if r.Playing() {
		t.Fatal("foreign layers should not start playback")
	}
}

func TestReceiverConfigValidation(t *testing.T) {
	for _, c := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := NewReceiver(Config{C: c}); err == nil {
			t.Fatalf("C = %v accepted", c)
		}
	}
	r, err := NewReceiver(Config{C: 50}) // defaults kick in
	if err != nil {
		t.Fatal(err)
	}
	if r.slotBytes < 1 || r.cfg.MaxLayers != 8 {
		t.Fatalf("defaults wrong: %+v", r.cfg)
	}
}

func TestReceiverTimeMonotone(t *testing.T) {
	r := newRx(t)
	r.Deliver(0, 0, 0, 5000)
	r.Advance(1)
	r.Advance(0.5) // going backwards is a no-op
	st := r.Stats()
	if st.PlayedSec > 1.01 {
		t.Fatalf("backwards Advance played extra time: %v", st.PlayedSec)
	}
}
