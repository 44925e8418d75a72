package sim

// Kind distinguishes data packets from acknowledgements.
type Kind uint8

const (
	// Data is a forward-path payload packet.
	Data Kind = iota
	// Ack is a reverse-path acknowledgement.
	Ack
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	default:
		return "unknown"
	}
}

// AckSize is the size, bytes, of every acknowledgement the simulated
// transports send.
const AckSize = 40

// SackBlock is a contiguous range of received sequence numbers
// [Start, End), carried on TCP acknowledgements.
type SackBlock struct {
	Start, End int64
}

// Packet is the unit of transfer in the simulator. Fields beyond FlowID,
// Seq, Size and Kind are interpreted by the protocol endpoints that use
// them; the network itself only looks at Size.
type Packet struct {
	FlowID int
	Seq    int64
	Size   int // bytes, including any notional header
	Kind   Kind

	// Layer is the video layer this data packet carries (QA flows only).
	Layer int
	// SendTime is when the packet left the source, for RTT sampling.
	SendTime float64
	// AckSeq is the sequence number being acknowledged (Ack packets).
	AckSeq int64
	// CumAck is the highest in-order sequence received plus one
	// (TCP-style cumulative acknowledgement).
	CumAck int64
	// Sack carries up to a few blocks of out-of-order received data.
	Sack []SackBlock
	// Echo carries an opaque sender timestamp echoed by the receiver.
	Echo float64
	// Retransmit marks a retransmitted data packet.
	Retransmit bool

	// Dst receives the packet when it exits the network.
	Dst Receiver

	// enqAt is when the packet entered the bottleneck queue, recorded by
	// the link so the dequeue can observe the queueing delay.
	enqAt float64

	// pooled marks a packet currently held by a PacketPool; Put uses it
	// to panic on double-release.
	pooled bool
}

// Receiver consumes packets delivered by the network.
type Receiver interface {
	Recv(p *Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p *Packet)

// Recv implements Receiver.
func (f ReceiverFunc) Recv(p *Packet) { f(p) }
