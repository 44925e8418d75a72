package tcp

import (
	"math"
	"slices"

	"qav/internal/sim"
)

// The map[int64]bool scoreboards the windowed ones replaced: the
// pre-windowed code verbatim, except that the send board now tracks its
// own window for pipe, kept as the reference the differential tests
// compare against. useMapBoards puts them under a whole Source.

// useMapBoards swaps src's scoreboards for the map reference. Call it
// straight after NewSource: the boards are first touched by the source's
// start event.
func useMapBoards(src *Source) {
	src.board = newMapSendBoard()
	src.sink.board = newMapRecvBoard()
}

type mapSendBoard struct {
	sack map[int64]bool
	loss map[int64]bool
	rtx  map[int64]bool

	lo, hi int64 // the window [highAck, nextSeq), moved by advance and extend
}

func newMapSendBoard() *mapSendBoard {
	return &mapSendBoard{
		sack: make(map[int64]bool),
		loss: make(map[int64]bool),
		rtx:  make(map[int64]bool),
	}
}

func (b *mapSendBoard) extend(seq int64)      { b.hi = max(b.hi, seq+1) }
func (b *mapSendBoard) sacked(seq int64) bool { return b.sack[seq] }
func (b *mapSendBoard) markSacked(seq int64)  { b.sack[seq] = true }
func (b *mapSendBoard) lost(seq int64) bool   { return b.loss[seq] }
func (b *mapSendBoard) rtxOut(seq int64) bool { return b.rtx[seq] }
func (b *mapSendBoard) markRtxOut(seq int64)  { b.rtx[seq] = true }
func (b *mapSendBoard) lostCount() int        { return len(b.loss) }

func (b *mapSendBoard) markSackedRange(lo, hi int64) {
	for seq := lo; seq < hi; seq++ {
		b.sack[seq] = true
	}
}

// markSacked is the single-sequence form the tests still drive the
// windowed board through; production code marks ranges.
func (b *windowedSendBoard) markSacked(seq int64) { b.markSackedRange(seq, seq+1) }

func (b *mapSendBoard) markLost(seq int64) {
	b.loss[seq] = true
	delete(b.rtx, seq)
}

func (b *mapSendBoard) nextLost() (int64, bool) {
	best := int64(math.MaxInt64)
	for seq := range b.loss {
		if !b.rtx[seq] && seq < best {
			best = seq
		}
	}
	if best == math.MaxInt64 {
		return 0, false
	}
	return best, true
}

func (b *mapSendBoard) pipe() int {
	n := 0
	for seq := b.lo; seq < b.hi; seq++ {
		if b.sack[seq] || (b.loss[seq] && !b.rtx[seq]) {
			continue
		}
		n++
	}
	return n
}

func (b *mapSendBoard) advance(lo, hi int64) {
	for seq := lo; seq < hi; seq++ {
		delete(b.sack, seq)
		delete(b.loss, seq)
		delete(b.rtx, seq)
	}
	b.lo, b.hi = hi, max(b.hi, hi)
}

func (b *mapSendBoard) markAllUnsackedLost(lo, hi int64) {
	for seq := lo; seq < hi; seq++ {
		if !b.sack[seq] {
			b.loss[seq] = true
			delete(b.rtx, seq)
		}
	}
}

// inferLost is the simplified IsLost() rule: an unsacked hole with at
// least three sacked sequences above it (up to hiSacked, inclusive) is
// lost.
func (b *mapSendBoard) inferLost(lo, hiSacked int64) {
	for seq := lo; seq < hiSacked; seq++ {
		if b.sack[seq] || b.loss[seq] {
			continue
		}
		above := 0
		for q := seq + 1; q <= hiSacked && above < 3; q++ {
			if b.sack[q] {
				above++
			}
		}
		if above >= 3 {
			b.loss[seq] = true
			delete(b.rtx, seq)
		}
	}
}

type mapRecvBoard struct {
	received map[int64]bool
	cum      int64
	seqs     []int64 // scratch for appendSack
}

func newMapRecvBoard() *mapRecvBoard {
	return &mapRecvBoard{received: make(map[int64]bool)}
}

func (b *mapRecvBoard) cumack() int64 { return b.cum }

func (b *mapRecvBoard) add(seq int64) {
	b.received[seq] = true
	for b.received[b.cum] {
		delete(b.received, b.cum)
		b.cum++
	}
}

func (b *mapRecvBoard) appendSack(blocks []sim.SackBlock) []sim.SackBlock {
	if len(b.received) == 0 {
		return blocks[:0]
	}
	seqs := b.seqs[:0]
	for s := range b.received {
		seqs = append(seqs, s)
	}
	b.seqs = seqs
	slices.Sort(seqs)
	start, prev := seqs[0], seqs[0]
	for _, s := range seqs[1:] {
		if s == prev+1 {
			prev = s
			continue
		}
		blocks = append(blocks, sim.SackBlock{Start: start, End: prev + 1})
		start, prev = s, s
	}
	blocks = append(blocks, sim.SackBlock{Start: start, End: prev + 1})
	// Most recent (highest) blocks are the most useful; cap at 3. Copy
	// down instead of reslicing so the backing array's head is kept for
	// reuse by the packet pool.
	if len(blocks) > 3 {
		n := copy(blocks, blocks[len(blocks)-3:])
		blocks = blocks[:n]
	}
	return blocks
}
