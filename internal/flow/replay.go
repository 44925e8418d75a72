package flow

import "qav/internal/core"

// InputKind names the controller call an Input stands for.
type InputKind uint8

const (
	// InPick is a data slot: PickLayer(Now, R, S), whose packet went out
	// as Seq.
	InPick InputKind = iota
	// InRepair is a repair slot: Tick(Now, R, S), whose packet went out
	// as Seq.
	InRepair
	// InTick is a Tick(Now, R, S) between sends.
	InTick
	// InBackoff is OnBackoff(Now, R, S), R the post-decrease rate.
	InBackoff
	// InAck is a fresh ACK of Seq at Now. It carries no layer: replay
	// credits the layer of its own pick for Seq, as the driver credits
	// the tag of its own.
	InAck
)

// Input is one controller call as the driver made it.
type Input struct {
	Kind InputKind
	Now  float64
	R, S float64 // rate and slope; unused by an ack
	Seq  int64   // the slot's or the ACK's sequence; unused by a tick or a backoff
}

// Replayer makes a record's controller calls again, one input at a
// time, for a caller that looks at the controller between them.
type Replayer struct {
	ctrl    *core.Controller
	pktSize int
	tags    map[int64]int // seq -> the layer this replay picked for it
}

// NewReplayer returns a replayer that drives ctrl, a fresh controller,
// with pktSize-byte packets.
func NewReplayer(ctrl *core.Controller, pktSize int) *Replayer {
	return &Replayer{ctrl: ctrl, pktSize: pktSize, tags: make(map[int64]int)}
}

// Feed makes the call in stands for. An ACK credits the layer this
// replay picked for its sequence, and nothing for a repair slot.
func (r *Replayer) Feed(in Input) {
	c := r.ctrl
	switch in.Kind {
	case InPick:
		r.tags[in.Seq] = c.PickLayer(in.Now, in.R, in.S, r.pktSize)
	case InRepair:
		c.Tick(in.Now, in.R, in.S)
		r.tags[in.Seq] = Repair
	case InTick:
		c.Tick(in.Now, in.R, in.S)
	case InBackoff:
		c.OnBackoff(in.Now, in.R, in.S)
	case InAck:
		layer, ok := r.tags[in.Seq]
		// A fresh ACK is the last word on its sequence.
		delete(r.tags, in.Seq)
		if ok && layer != Repair {
			c.OnDelivered(in.Now, layer, r.pktSize)
		}
	}
}

// Replay drives ctrl, a fresh controller, through a record made by
// Driver.Record with pktSize-byte packets. Any controller variant (Kmax,
// allocation policy) takes the record; it ends in the state a run of
// that variant over the same transport trace ends in, bit for bit.
func Replay(ctrl *core.Controller, in []Input, pktSize int) {
	r := NewReplayer(ctrl, pktSize)
	for _, x := range in {
		r.Feed(x)
	}
}
