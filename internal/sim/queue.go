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

// fifo is the packet ring DropTail and RED hold their packets in,
// with a running byte count.
type fifo struct {
	q     ring[*Packet]
	bytes int
}

// push appends p at the tail.
func (f *fifo) push(p *Packet) {
	f.q.push(p)
	f.bytes += p.Size
}

// Dequeue implements Queue.
func (f *fifo) Dequeue() *Packet {
	if f.q.n == 0 {
		return nil
	}
	p := f.q.pop()
	f.bytes -= p.Size
	return p
}

// Len implements Queue.
func (f *fifo) Len() int { return f.q.n }

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
