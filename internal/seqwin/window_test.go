package seqwin

import (
	"slices"
	"testing"
)

// The loss scans are held against a map oracle by the randomized
// differential in internal/rap; the tests here cover what only this
// package can see: how large the ring gets.

func TestZeroValueIsEmpty(t *testing.T) {
	var w Window
	if _, ok := w.Ack(0); ok || w.Len() != 0 {
		t.Fatal("empty window acknowledged something")
	}
	if lost := w.GapLost(nil, 3); len(lost) != 0 {
		t.Fatalf("empty window lost %v to the gap", lost)
	}
	if lost := w.TimedOut(nil, 100, 1); len(lost) != 0 {
		t.Fatalf("empty window lost %v to a timeout", lost)
	}
	if seq := w.Send(1); seq != 0 || w.Len() != 1 {
		t.Fatalf("first send: seq %d, len %d", seq, w.Len())
	}
}

// A session with a handful of packets in flight must stay in the first
// ring however long it runs: a server holds one window per session.
func TestRingStaysSmallInSteadyState(t *testing.T) {
	var w Window
	for i := int64(0); i < 10_000; i++ {
		seq := w.Send(float64(i))
		if seq >= 8 {
			// ACKs trail by eight packets; every tenth never comes.
			if a := seq - 8; a%10 != 0 {
				w.Ack(a)
			}
			w.GapLost(nil, 3)
		}
	}
	if len(w.sentAt) != minSlots {
		t.Fatalf("ring grew to %d slots with at most %d in flight", len(w.sentAt), 8+3)
	}
}

// A peer that never raises the highest ACK leaves base behind; the ring
// slides base over the acknowledged prefix before it considers growing.
func TestGrowSlidesBaseBeforeDoubling(t *testing.T) {
	var w Window
	for i := 0; i < 1000; i++ {
		seq := w.Send(0)
		if seq > 0 {
			w.Ack(seq - 1) // GapLost never called: base moves only in grow
		}
	}
	if len(w.sentAt) != minSlots {
		t.Fatalf("ring grew to %d slots with two packets in flight", len(w.sentAt))
	}
}

func TestGrowKeepsLiveEntries(t *testing.T) {
	var w Window
	for i := 0; i < 100; i++ {
		w.Send(float64(i))
	}
	if len(w.sentAt) != 128 || w.Len() != 100 {
		t.Fatalf("100 unacknowledged sends: %d slots, len %d", len(w.sentAt), w.Len())
	}
	for _, seq := range []int64{0, 15, 16, 31, 32, 99} {
		if at, ok := w.Ack(seq); !ok || at != float64(seq) {
			t.Fatalf("Ack(%d) = %v, %v after growth", seq, at, ok)
		}
	}
	// Everything sent before t=50 and not acknowledged, in order.
	lost := w.TimedOut(nil, 60, 10.5)
	want := []int64{}
	for seq := int64(1); seq < 50; seq++ {
		if seq != 15 && seq != 16 && seq != 31 && seq != 32 {
			want = append(want, seq)
		}
	}
	if !slices.Equal(lost, want) {
		t.Fatalf("timed out %v, want %v", lost, want)
	}
	if w.Len() != 49 {
		t.Fatalf("len %d after the timeout sweep, want 49 (seqs 50..98)", w.Len())
	}
}
