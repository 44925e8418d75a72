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
	if _, _, ok := w.Ack(0); ok || w.Len() != 0 {
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
	if len(w.slots) != minSlots {
		t.Fatalf("ring grew to %d slots with at most %d in flight", len(w.slots), 8+3)
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
	if len(w.slots) != minSlots {
		t.Fatalf("ring grew to %d slots with two packets in flight", len(w.slots))
	}
}

func TestGrowKeepsLiveEntries(t *testing.T) {
	var w Window
	for i := 0; i < 100; i++ {
		w.SetTag(w.Send(float64(i)), int32(i+1)) // tagged while the ring is 16, 32, 64, 128 slots
	}
	if len(w.slots) != 128 || w.Len() != 100 {
		t.Fatalf("100 unacknowledged sends: %d slots, len %d", len(w.slots), w.Len())
	}
	for _, seq := range []int64{0, 15, 16, 31, 32, 99} {
		if at, tag, ok := w.Ack(seq); !ok || at != float64(seq) || tag != int32(seq+1) {
			t.Fatalf("Ack(%d) = %v, tag %d, %v after growth", seq, at, tag, ok)
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

// A tag belongs to its sequence, not to its slot: it comes back from
// that sequence's first Ack only, leaves with a sequence declared lost,
// and a later sequence that reuses the slot starts untagged.
func TestTagsFollowTheSequence(t *testing.T) {
	var w Window
	ack := func(seq int64) (int32, bool) {
		_, tag, ok := w.Ack(seq)
		return tag, ok
	}
	// Four in flight for ten laps of the 16-slot ring.
	for seq := int64(0); seq < 10*minSlots; seq++ {
		if got := w.Send(float64(seq)); got != seq {
			t.Fatalf("Send = %d, want %d", got, seq)
		}
		w.SetTag(seq, int32(seq%7)-1) // -1 included: the driver's repair tag
		if a := seq - 4; a >= 0 {
			if tag, ok := ack(a); !ok || tag != int32(a%7)-1 {
				t.Fatalf("Ack(%d) = tag %d, %v; want %d", a, tag, ok, int32(a%7)-1)
			}
			if tag, ok := ack(a); ok || tag != 0 {
				t.Fatalf("duplicate Ack(%d) = tag %d, %v", a, tag, ok)
			}
		}
		w.GapLost(nil, 8)
	}
	if len(w.slots) != minSlots {
		t.Fatalf("ring grew to %d slots", len(w.slots))
	}

	// 156..159 are outstanding. Lose 156 and 157 to the gap and 158 to
	// the timeout; a late ACK for any of them finds no tag.
	top := w.Send(1e3)
	w.SetTag(top, 40)
	w.Ack(top)
	if lost := w.GapLost(nil, 3); !slices.Equal(lost, []int64{156, 157}) {
		t.Fatalf("gap lost %v", lost)
	}
	if lost := w.TimedOut(nil, 158.5+10, 10); !slices.Equal(lost, []int64{158}) {
		t.Fatalf("timed out %v", lost)
	}
	for seq := int64(156); seq <= 158; seq++ {
		if tag, ok := ack(seq); ok || tag != 0 {
			t.Fatalf("Ack(%d) after its loss = tag %d, %v", seq, tag, ok)
		}
	}
	w.SetTag(157, 9) // not outstanding: ignored
	// The slots refill a lap later; a sequence nobody tagged reads 0, not
	// the lost sequence's tag.
	for seq := top + 1; seq < 157+minSlots; seq++ {
		w.Send(2e3)
		w.Ack(seq)
	}
	refill := w.Send(2e3)
	if refill&w.mask != 157&w.mask {
		t.Fatalf("seq %d does not reuse the slot of 157", refill)
	}
	if tag, ok := ack(refill); !ok || tag != 0 {
		t.Fatalf("Ack(%d) in a refilled slot = tag %d, %v", refill, tag, ok)
	}
	if tag, ok := ack(159); !ok || tag != int32(159%7)-1 {
		t.Fatalf("Ack(159) = tag %d, %v: a survivor lost its tag", tag, ok)
	}
}
