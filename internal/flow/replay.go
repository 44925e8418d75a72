package flow

import (
	"qav/internal/core"
	"qav/internal/seqwin"
	"qav/internal/transport"
)

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

// Replayer makes a driver's controller calls again on another
// controller, one input at a time: live, as the driver makes them (Feed
// handed to Driver.Follow), or from a record. It keeps the per-layer
// byte counts the driver keeps, for its own picks.
type Replayer struct {
	Ctrl *core.Controller
	// SentByLayer / DeliveredByLayer count payload bytes per layer as
	// the driver's do: this replay's data picks, and the ACKs it credits.
	SentByLayer      []int64
	DeliveredByLayer []int64

	pktSize int
	// win holds the layer this replay picked for each sequence as its
	// tag, as the transport's window holds the driver's: the driver's
	// sequences are that window's, 0, 1, 2, ... in send order. A lost
	// sequence leaves once an ACK passes it by transport.ReorderGap, as
	// it leaves the transport's window, and can never be fresh again.
	win  seqwin.Window
	lost []int64 // GapLost's scratch
}

// NewReplayer returns a replayer that drives ctrl, a fresh controller,
// with pktSize-byte packets.
func NewReplayer(ctrl *core.Controller, pktSize int) *Replayer {
	n := ctrl.P.MaxLayers
	counters := make([]int64, 2*n)
	return &Replayer{Ctrl: ctrl, SentByLayer: counters[:n:n], DeliveredByLayer: counters[n:], pktSize: pktSize}
}

// Feed makes the call in stands for. An ACK credits the layer this
// replay picked for its sequence, and nothing for a repair slot.
func (r *Replayer) Feed(in Input) {
	c := r.Ctrl
	switch in.Kind {
	case InPick:
		layer := c.PickLayer(in.Now, in.R, in.S, r.pktSize)
		r.SentByLayer[layer] += int64(r.pktSize)
		r.win.SetTag(r.win.Send(in.Now), int32(layer))
	case InRepair:
		c.Tick(in.Now, in.R, in.S)
		r.win.SetTag(r.win.Send(in.Now), Repair)
	case InTick:
		c.Tick(in.Now, in.R, in.S)
	case InBackoff:
		c.OnBackoff(in.Now, in.R, in.S)
	case InAck:
		_, layer, ok := r.win.Ack(in.Seq)
		r.lost = r.win.GapLost(r.lost[:0], transport.ReorderGap)
		if ok && layer != Repair {
			c.OnDelivered(in.Now, int(layer), r.pktSize)
			r.DeliveredByLayer[layer] += int64(r.pktSize)
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
