package sim

// Queue buffers packets ahead of a link. Implementations decide the drop
// policy; the link only calls Dequeue.
type Queue interface {
	// Enqueue offers a packet to the queue. It returns false if the
	// packet was dropped.
	Enqueue(p *Packet) bool
	// Dequeue removes and returns the packet at the head, or nil.
	Dequeue() *Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int
	// Drops returns the cumulative number of dropped packets.
	Drops() int64
}

// fifo is the packet ring DropTail and RED hold their packets in.
// Dequeuing advances the head index instead of reslicing from the front,
// so a long-lived queue reuses one backing array instead of pinning
// consumed prefixes until the next realloc. The ring is always a power
// of two so wrap-around is a mask, not a divide — push and Dequeue sit
// on the per-packet hot path.
type fifo struct {
	ring  []*Packet
	mask  int // len(ring)-1
	head  int // index of the oldest packet
	count int
	bytes int
}

// push appends p at the tail.
func (f *fifo) push(p *Packet) {
	if f.count == len(f.ring) {
		f.grow()
	}
	f.ring[(f.head+f.count)&f.mask] = p
	f.count++
	f.bytes += p.Size
}

// grow doubles the full ring (always to a power of two), unwrapping
// it to the front.
func (f *fifo) grow() {
	next := make([]*Packet, max(8, 2*len(f.ring)))
	n := copy(next, f.ring[f.head:])
	copy(next[n:], f.ring[:f.head])
	f.ring, f.mask, f.head = next, len(next)-1, 0
}

// Dequeue implements Queue.
func (f *fifo) Dequeue() *Packet {
	if f.count == 0 {
		return nil
	}
	p := f.ring[f.head]
	f.ring[f.head] = nil
	f.head = (f.head + 1) & f.mask
	f.count--
	f.bytes -= p.Size
	return p
}

// Len implements Queue.
func (f *fifo) Len() int { return f.count }

// Bytes implements Queue.
func (f *fifo) Bytes() int { return f.bytes }

// DropTail is a FIFO queue with a byte-capacity limit, the queue
// discipline the paper's ns-2 scenarios use at the bottleneck.
type DropTail struct {
	fifo
	limit   int // bytes
	dropped int64
}

// NewDropTail returns a FIFO queue holding at most limit bytes.
func NewDropTail(limit int) *DropTail {
	if limit <= 0 {
		panic("sim: DropTail limit must be positive")
	}
	return &DropTail{limit: limit}
}

// Enqueue implements Queue. Arriving packets that would exceed the byte
// limit are dropped (tail drop).
func (q *DropTail) Enqueue(p *Packet) bool {
	if q.bytes+p.Size > q.limit {
		q.dropped++
		return false
	}
	q.push(p)
	return true
}

// Drops implements Queue.
func (q *DropTail) Drops() int64 { return q.dropped }
