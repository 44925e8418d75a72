// Scoreboard representations for the Sack-TCP model.
//
// The sender tracks three per-sequence facts about its outstanding
// window [highAck, nextSeq): SACKed by the receiver, inferred lost, and
// retransmitted-awaiting-ack. The sink tracks which sequences above its
// cumulative ack it has received. Both sides used to keep that state in
// map[int64]bool; at fleet scale (hundreds of flows, long runs) the maps
// made the per-packet path O(window) hash work with steady-state
// allocations, and the sink's map grew without bound: a spurious
// retransmission arriving below the cumulative ack stayed in the map for
// the rest of the run and was re-sorted into every subsequent SACK
// scan.
//
// The windowed representation replaces each map with a ring bitmap
// whose base slides with the cumulative ack: zero steady-state
// allocations and memory bounded by the peak window instead of the
// sequence space. Sliding the base is O(1) amortized per packet; what
// an ACK costs beyond that is word-parallel — absorbing its SACK blocks
// is O(blocks + block words), loss inference visits only the words above
// a watermark below which nothing is left to infer, the pipe count and
// "any loss pending?" are counts kept as words change, and the sink's
// SACK scan is O(words down to the third run). The map implementation
// survives only as the tests' reference (scoreboard_ref_test.go):
// TestScoreboardDifferential* and TestTCPDifferentialMapVsWindowed replay
// randomized loss/reorder/RTO workloads against both and require
// bit-for-bit identical decisions.
package tcp

import (
	"math/bits"

	"qav/internal/sim"
)

// sendBoard is the sender-side scoreboard over the window [highAck,
// nextSeq): extend moves its top, advance its bottom. All other sequence
// arguments lie in the window, except advance's, whose range is the newly
// cumulatively-acknowledged prefix. extend must be called (with the new
// highest sequence) before state is first touched for that sequence.
// Binaries run windowedSendBoard; the interface is the seam through which
// tests substitute the map reference.
type sendBoard interface {
	extend(seq int64)             // reserve tracking capacity through seq
	sacked(seq int64) bool        // SACKed by the receiver
	markSackedRange(lo, hi int64) // every sequence of [lo, hi) is SACKed
	lost(seq int64) bool          // inferred lost (marked for retransmission)
	markLost(seq int64)           // set lost, clear rtx-out
	rtxOut(seq int64) bool        // retransmitted, awaiting ack
	markRtxOut(seq int64)
	lostCount() int                   // number of sequences currently marked lost
	nextLost() (int64, bool)          // lowest lost && !rtxOut sequence of the window
	pipe() int                        // window sequences neither sacked nor (lost && !rtxOut)
	advance(lo, hi int64)             // cumulative ack moved: reclaim [lo, hi)
	markAllUnsackedLost(lo, hi int64) // RTO: every unsacked sequence is presumed lost
	inferLost(lo, hiSacked int64)     // SACK loss inference (>= 3 sacked above => lost)
}

// recvBoard is the sink-side received-sequence tracker.
type recvBoard interface {
	add(seq int64) // a data packet for seq arrived (may advance the cumulative ack)
	cumack() int64 // first sequence not yet received contiguously
	// appendSack appends up to three SACK blocks — the highest runs of
	// received-but-not-cumacked sequences, in ascending order — into
	// blocks (typically a pooled packet's recycled backing array).
	appendSack(blocks []sim.SackBlock) []sim.SackBlock
}

// ---------------------------------------------------------------------
// Windowed implementation: ring bitmaps sliding with the cumulative ack.
//
// A seqBits maps sequence seq to bit (seq & mask) of a power-of-two bit
// array. As long as every live sequence lies within one window of
// capacity sequences, distinct live sequences occupy distinct bits; the
// board grows the rings (rare, amortized) whenever the window would
// exceed capacity, and clears bits as the base advances, so a bit read
// for an in-window sequence is never stale.

// minRingSeqs is the initial ring capacity in sequences. Generous
// enough that ordinary single-flow windows never grow the rings
// mid-measurement (the TestAllocFree* budgets include loss recovery).
const minRingSeqs = 256

type seqBits struct {
	words []uint64
	mask  int64 // capacity-1; capacity = len(words)*64, a power of two
}

func newSeqBits(capSeqs int64) seqBits {
	return seqBits{words: make([]uint64, capSeqs/64), mask: capSeqs - 1}
}

// slot returns seq's ring word and its bit in it.
func (b *seqBits) slot(seq int64) (w int, bit uint64) {
	i := seq & b.mask
	return int(i >> 6), 1 << uint(i&63)
}

func (b *seqBits) get(seq int64) bool {
	w, bit := b.slot(seq)
	return b.words[w]&bit != 0
}

func (b *seqBits) set(seq int64) {
	w, bit := b.slot(seq)
	b.words[w] |= bit
}

func (b *seqBits) clear(seq int64) {
	w, bit := b.slot(seq)
	b.words[w] &^= bit
}

// grow doubles (at least) the capacity to hold newCap sequences and
// re-places the live bits of [lo, hi).
func (b *seqBits) grow(newCap int64, lo, hi int64) {
	old := *b
	for int64(len(b.words))*64 < newCap {
		n := int64(len(b.words)) * 2 * 64
		b.words = make([]uint64, n/64)
		b.mask = n - 1
	}
	for seq := lo; seq < hi; seq++ {
		if old.get(seq) {
			b.set(seq)
		}
	}
}

// topWord returns the bits of the sequences of [lo, hi) that share a
// ring word with hi-1, shifted so that hi-1 is bit 63 and lower
// sequences follow it down, and how many sequences that is; the bits
// below them are zero. Scans that run from the top of a window down
// take it a word at a time with this.
func (b *seqBits) topWord(lo, hi int64) (w uint64, n int64) {
	i := (hi - 1) & b.mask
	top := i & 63
	n = top + 1
	if left := hi - lo; left < n {
		n = left
	}
	return b.words[i>>6] << uint(63-top) & (^uint64(0) << uint(64-n)), n
}

// span is one word-aligned chunk of a sequence range in ring bit space:
// bits [off, off+n) of words[w] cover sequences [seq, seq+n).
type span struct {
	w    int
	off  uint
	n    int64
	seq  int64
	mask uint64 // n bits starting at off
}

// spans iterates [lo, hi) chunk by chunk. Each chunk lies within one
// word, so callers do word-parallel bit work; the ring wrap is absorbed
// by recomputing the index per chunk.
func ringSpans(lo, hi, mask int64, visit func(sp span) bool) {
	for seq := lo; seq < hi; {
		i := seq & mask
		off := uint(i & 63)
		n := int64(64) - int64(off)
		if rem := hi - seq; n > rem {
			n = rem
		}
		m := ^uint64(0) >> (64 - uint(n)) << off
		if !visit(span{w: int(i >> 6), off: off, n: n, seq: seq, mask: m}) {
			return
		}
		seq += n
	}
}

type windowedSendBoard struct {
	sack seqBits
	loss seqBits
	rtx  seqBits

	base int64 // lowest tracked sequence (the cumulative ack)
	high int64 // one past the highest sequence ever extended to

	// Counts over the window, moved by every word put stores: loss bits,
	// pending losses (loss &^ rtx) and the sequences pipe leaves out
	// (sack | loss &^ rtx). No bit outside the window is ever set, so a
	// whole word's popcount is its window part's.
	nLost, nPending, nExcl int

	// wm is the inference watermark: every sequence of [base, wm) is
	// sacked or lost. Only advance clears those bits, and it moves base
	// past them, so loss inference never needs to look below wm.
	wm int64
}

func newWindowedSendBoard() *windowedSendBoard {
	return &windowedSendBoard{
		sack: newSeqBits(minRingSeqs),
		loss: newSeqBits(minRingSeqs),
		rtx:  newSeqBits(minRingSeqs),
	}
}

func (b *windowedSendBoard) extend(seq int64) {
	if seq < b.high {
		return
	}
	// Grow before moving high: re-placement must read only live bits of
	// the old window [base, high) — the new sequence's slot may alias a
	// live bit in the old (smaller) ring.
	if need := seq + 1 - b.base; need > b.sack.mask+1 {
		b.sack.grow(need, b.base, b.high)
		b.loss.grow(need, b.base, b.high)
		b.rtx.grow(need, b.base, b.high)
	}
	b.high = seq + 1
}

// put stores new contents for ring word w of the three bitmaps, moving
// the counts by the popcount differences.
func (b *windowedSendBoard) put(w int, sack, loss, rtx uint64) {
	os, ol, or := b.sack.words[w], b.loss.words[w], b.rtx.words[w]
	b.nLost += bits.OnesCount64(loss) - bits.OnesCount64(ol)
	b.nPending += bits.OnesCount64(loss&^rtx) - bits.OnesCount64(ol&^or)
	b.nExcl += bits.OnesCount64(sack|loss&^rtx) - bits.OnesCount64(os|ol&^or)
	b.sack.words[w], b.loss.words[w], b.rtx.words[w] = sack, loss, rtx
}

func (b *windowedSendBoard) sacked(seq int64) bool { return b.sack.get(seq) }
func (b *windowedSendBoard) lost(seq int64) bool   { return b.loss.get(seq) }
func (b *windowedSendBoard) rtxOut(seq int64) bool { return b.rtx.get(seq) }
func (b *windowedSendBoard) lostCount() int        { return b.nLost }

func (b *windowedSendBoard) markRtxOut(seq int64) {
	w, bit := b.sack.slot(seq)
	b.put(w, b.sack.words[w], b.loss.words[w], b.rtx.words[w]|bit)
}

func (b *windowedSendBoard) markLost(seq int64) {
	w, bit := b.sack.slot(seq)
	b.put(w, b.sack.words[w], b.loss.words[w]|bit, b.rtx.words[w]&^bit)
}

func (b *windowedSendBoard) nextLost() (int64, bool) {
	if b.nPending == 0 {
		return 0, false
	}
	found, at := false, int64(0)
	ringSpans(b.base, b.high, b.loss.mask, func(sp span) bool {
		if w := b.loss.words[sp.w] &^ b.rtx.words[sp.w] & sp.mask; w != 0 {
			at = sp.seq + int64(bits.TrailingZeros64(w)) - int64(sp.off)
			found = true
			return false
		}
		return true
	})
	return at, found
}

func (b *windowedSendBoard) pipe() int { return int(b.high-b.base) - b.nExcl }

func (b *windowedSendBoard) advance(lo, hi int64) {
	ringSpans(lo, hi, b.sack.mask, func(sp span) bool {
		b.put(sp.w, b.sack.words[sp.w]&^sp.mask, b.loss.words[sp.w]&^sp.mask, b.rtx.words[sp.w]&^sp.mask)
		return true
	})
	b.base = hi
	b.high = max(b.high, b.base)
	b.wm = max(b.wm, b.base)
}

func (b *windowedSendBoard) markSackedRange(lo, hi int64) {
	ringSpans(lo, hi, b.sack.mask, func(sp span) bool {
		// An ACK repeats its SACK blocks: most words are SACKed already.
		if s := b.sack.words[sp.w]; s|sp.mask != s {
			b.put(sp.w, s|sp.mask, b.loss.words[sp.w], b.rtx.words[sp.w])
		}
		return true
	})
}

func (b *windowedSendBoard) markAllUnsackedLost(lo, hi int64) {
	ringSpans(lo, hi, b.sack.mask, func(sp span) bool {
		s := b.sack.words[sp.w]
		unsacked := ^s & sp.mask
		b.put(sp.w, s, b.loss.words[sp.w]|unsacked, b.rtx.words[sp.w]&^unsacked)
		return true
	})
	b.covered(lo, hi)
}

// inferLost marks lost every unsacked, not-yet-lost sequence of
// [lo, hiSacked) with three or more SACKed sequences above it (up to
// hiSacked, inclusive). The SACKed set does not change during
// inference, so "three sacked above" holds exactly for the sequences
// below the third-highest SACKed one: find that by popcount from the
// top, then mark [lo, third) a word at a time — from the watermark up,
// as below it there is nothing left to mark.
func (b *windowedSendBoard) inferLost(lo, hiSacked int64) {
	third, ok := b.nthSackedDown(lo, hiSacked+1, 3)
	if !ok {
		return
	}
	ringSpans(max(lo, b.wm), third, b.sack.mask, func(sp span) bool {
		s, l := b.sack.words[sp.w], b.loss.words[sp.w]
		fresh := ^s &^ l & sp.mask
		b.put(sp.w, s, l|fresh, b.rtx.words[sp.w]&^fresh)
		return true
	})
	b.covered(lo, third)
}

// covered records that every sequence of [lo, hi) is sacked or lost.
func (b *windowedSendBoard) covered(lo, hi int64) {
	if lo <= b.wm && b.wm < hi {
		b.wm = hi
	}
}

// nthSackedDown returns the n-th highest SACKed sequence of [lo, hi),
// visiting one ring word per step from the top.
func (b *windowedSendBoard) nthSackedDown(lo, hi int64, n int) (int64, bool) {
	for hi > lo {
		w, span := b.sack.topWord(lo, hi)
		if c := bits.OnesCount64(w); c < n {
			n -= c
			hi -= span
			continue
		}
		for ; n > 1; n-- {
			w &^= 1 << 63 >> uint(bits.LeadingZeros64(w))
		}
		return hi - 1 - int64(bits.LeadingZeros64(w)), true
	}
	return 0, false
}

type windowedRecvBoard struct {
	bits seqBits
	cum  int64 // cumulative ack: everything below is received and reclaimed
	high int64 // one past the highest received sequence
}

func newWindowedRecvBoard() *windowedRecvBoard {
	return &windowedRecvBoard{bits: newSeqBits(minRingSeqs)}
}

func (b *windowedRecvBoard) cumack() int64 { return b.cum }

func (b *windowedRecvBoard) add(seq int64) {
	if seq < b.cum {
		// Spurious (already cumulatively acknowledged) retransmission.
		// The map reference kept these forever — the unbounded-memory
		// bug this representation fixes; they carry no information the
		// sender can use, so they are dropped here.
		return
	}
	if seq >= b.high {
		// Grow before moving high (see windowedSendBoard.extend).
		if need := seq + 1 - b.cum; need > b.bits.mask+1 {
			b.bits.grow(need, b.cum, b.high)
		}
		b.high = seq + 1
	}
	b.bits.set(seq)
	for b.cum < b.high && b.bits.get(b.cum) {
		b.bits.clear(b.cum)
		b.cum++
	}
}

// appendSack scans down from the highest received sequence, one ring
// word per step, collecting the three highest runs, then emits them in
// ascending order — the same blocks the reference produces for
// sequences above the cumulative ack.
func (b *windowedRecvBoard) appendSack(blocks []sim.SackBlock) []sim.SackBlock {
	blocks = blocks[:0]
	var found [3]sim.SackBlock
	n := 0
	inRun, end := false, int64(0) // a run [?, end) is open across words
	for hi := b.high; hi > b.cum && n < 3; {
		// Bits below the valid ones read as not received.
		w, valid := b.bits.topWord(b.cum, hi)
		for used := int64(0); used < valid && n < 3; {
			if !inRun {
				used += int64(bits.LeadingZeros64(w << uint(used)))
				if used < valid {
					inRun, end = true, hi-used
				}
				continue
			}
			used += int64(bits.LeadingZeros64(^(w << uint(used))))
			if used < valid || hi-valid == b.cum {
				found[n] = sim.SackBlock{Start: hi - used, End: end}
				n++
				inRun = false
			}
		}
		hi -= valid
	}
	for i := n - 1; i >= 0; i-- {
		blocks = append(blocks, found[i])
	}
	return blocks
}
