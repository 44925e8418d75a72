package netio

// seqRing is a windowed sequence -> layer attribution table: the
// scoreboard idiom from internal/tcp applied to the server's
// seq -> layer map. The old map[int64]int grew one entry per packet for
// the life of a stream (acknowledged entries were deleted, but every
// loss leaked its entry forever and the map's bucket array never
// shrank). The ring stores each live sequence at slot seq & mask with
// the owning sequence number alongside, so memory is fixed at
// construction: when the send window advances more than size sequences
// past an unacknowledged packet, its slot is simply overwritten — the
// same effect as forgetting a loss, which is exactly what stale entries
// are.
//
// The zero value is unusable; make one with newSeqRing.
type seqRing struct {
	seqs   []int64 // owning sequence per slot, -1 = empty
	layers []int32
	mask   int64
}

// newSeqRing returns a ring tracking up to size in-flight sequences.
// size must be a power of two.
func newSeqRing(size int) seqRing {
	if size <= 0 || size&(size-1) != 0 {
		panic("netio: seqRing size must be a positive power of two")
	}
	r := seqRing{
		seqs:   make([]int64, size),
		layers: make([]int32, size),
		mask:   int64(size - 1),
	}
	for i := range r.seqs {
		r.seqs[i] = -1
	}
	return r
}

// put records that seq carries layer, overwriting whatever sequence
// last hashed to the slot (necessarily at least size sequences older).
func (r *seqRing) put(seq int64, layer int) {
	i := seq & r.mask
	r.seqs[i] = seq
	r.layers[i] = int32(layer)
}

// take returns and clears seq's layer. The second result is false when
// seq was never recorded, already taken, or overwritten by a newer
// sequence.
func (r *seqRing) take(seq int64) (int, bool) {
	i := seq & r.mask
	if r.seqs[i] != seq {
		return 0, false
	}
	r.seqs[i] = -1
	return int(r.layers[i]), true
}

// del clears seq's entry if it is still present (loss forget path).
func (r *seqRing) del(seq int64) {
	i := seq & r.mask
	if r.seqs[i] == seq {
		r.seqs[i] = -1
	}
}

// live counts occupied slots. O(size); for tests and stats only.
func (r *seqRing) live() int {
	n := 0
	for _, s := range r.seqs {
		if s >= 0 {
			n++
		}
	}
	return n
}
