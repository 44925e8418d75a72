// Package flow is the one quality-adaptation + congestion-control loop.
// The paper's claim is that quality adaptation needs only a rate, a
// conservative slope and backoff notifications from the transport, so
// the loop is written once, here, and both stacks run it: the
// simulator's scenario sources schedule it with engine events, the UDP
// server's sessions with wheel slots. Per send slot: pick a layer (or
// spend the slot on a repair), register the send, tag the sequence with
// its layer, advance the pace by one IPG. Per ACK: feed the transport,
// hand a backoff to the controller, credit the layer of a freshly
// acknowledged sequence. The seq -> layer attribution is the tag in the
// transport's own outstanding window, so a sequence declared lost takes
// its attribution with it and nothing is kept beside the window.
//
// The driver keeps no clock: every call takes the caller's now (virtual
// or wall seconds), like the transports and the controller under it.
package flow

import (
	"qav/internal/core"
	"qav/internal/transport"
)

// SendBurst caps pacing debt in inter-packet gaps, and so bounds a
// flow's back-to-back catch-up after a stall: a sender that fell behind
// (timer coalescing, a long input drain, a descheduled goroutine) repays
// at most this many gaps by closer spacing, so recovery takes
// O(backlog/burst) wakeups instead of O(backlog) — never an unbounded
// line-rate blast, and never one flow monopolizing a write batch.
const SendBurst = 8

// Repair is the layer Send reports for a repair slot, and the tag such a
// sequence carries: retransmitted bytes sit behind the playout point, so
// they repair holes without extending the receiver's buffer and their
// ACK is never credited to the controller.
const Repair = -1

// Driver runs the loop for one flow. Not goroutine-safe; its owner (one
// scenario source, one server session) serializes access.
type Driver struct {
	// Tr is the congestion-control backend.
	Tr transport.Transport
	// Ctrl is the quality adaptation controller; nil for cross traffic,
	// which sends layer 0 and credits nothing.
	Ctrl *core.Controller

	// NextSend is the next paced transmission instant.
	NextSend float64
	lastStep float64
	// PacketSize is Tr's fixed payload size, bytes.
	PacketSize int

	// SentByLayer / DeliveredByLayer count payload bytes per layer
	// (cumulative; MaxLayers entries, nil without a controller): new data
	// sent, and fresh ACKs credited.
	SentByLayer      []int64
	DeliveredByLayer []int64
}

// New returns a driver over tr and ctrl (nil for cross traffic) whose
// first send and first lazy step are due at start.
func New(tr transport.Transport, ctrl *core.Controller, start float64) Driver {
	d := Driver{Tr: tr, Ctrl: ctrl, NextSend: start, lastStep: start, PacketSize: tr.PacketSize()}
	if ctrl != nil {
		n := ctrl.P.MaxLayers
		counters := make([]int64, 2*n)
		d.SentByLayer, d.DeliveredByLayer = counters[:n:n], counters[n:]
	}
	return d
}

// Step runs the transport's periodic rate decision at now and reports
// whether it backed off. The simulator calls it from a timer, every
// StepInterval.
func (d *Driver) Step(now float64) (backedOff bool) {
	d.lastStep = now
	return d.backoff(now, d.Tr.Step(now))
}

// StepIfDue is Step once a StepInterval has passed since the last one:
// the server's cadence, checked at send time, so a flow whose IPG
// exceeds its SRTT steps once per packet rather than once per SRTT.
func (d *Driver) StepIfDue(now float64) (backedOff bool) {
	if now-d.lastStep < d.Tr.StepInterval() {
		return false
	}
	return d.Step(now)
}

// Send takes the send slot at now: it returns the sequence registered
// with the transport and the layer the packet carries, and advances
// NextSend. With repairPending (the caller holds a retransmission
// request) and the rate at or above the consumption rate, the slot goes
// to the repair instead (§1.3): layer is Repair, and the retransmission
// stays congestion controlled because it consumed the slot.
//
// The pace advances from the scheduled instant, not the actual one, so
// lateness is repaid by temporarily closer spacing instead of sagging
// below the target rate, with the debt capped at SendBurst gaps. Called
// exactly at NextSend (the simulator), the next slot is now + IPG.
func (d *Driver) Send(now float64, repairPending bool) (seq int64, layer int) {
	c := d.Ctrl
	if c != nil {
		rate, slope := d.Tr.Rate(), d.Tr.ConservativeSlope()
		if repairPending && rate >= c.ConsumptionRate() {
			layer = Repair
			c.Tick(now, rate, slope)
		} else {
			layer = c.PickLayer(now, rate, slope, d.PacketSize)
			d.SentByLayer[layer] += int64(d.PacketSize)
		}
	}
	seq = d.Tr.OnSend(now)
	if c != nil {
		d.Tr.Tag(seq, int32(layer))
	}
	ipg := d.Tr.IPG()
	base := d.NextSend
	if floor := now - SendBurst*ipg; base < floor {
		base = floor
	}
	d.NextSend = base + ipg
	return seq, layer
}

// Ack feeds one acknowledgement through the transport and the
// controller: a backoff reaches the controller before the delivery does,
// and only a sequence the transport calls fresh — outstanding until this
// ACK, so not a duplicate, not already declared lost, not never sent —
// is credited, to the layer it was tagged with.
func (d *Driver) Ack(now float64, seq int64) (backedOff, credited bool) {
	backedOff = d.backoff(now, d.Tr.OnAck(now, seq))
	if d.Ctrl == nil {
		return backedOff, false
	}
	layer, fresh := d.Tr.Acked()
	if !fresh || layer == Repair {
		return backedOff, false
	}
	d.Ctrl.OnDelivered(now, int(layer), d.PacketSize)
	d.DeliveredByLayer[layer] += int64(d.PacketSize)
	return backedOff, true
}

func (d *Driver) backoff(now float64, b *transport.Backoff) bool {
	if b == nil {
		return false
	}
	if d.Ctrl != nil {
		d.Ctrl.OnBackoff(now, b.NewRate, d.Tr.ConservativeSlope())
	}
	return true
}
