// Package scenario wires the substrates together into the paper's
// evaluation setups: a quality-adaptive RAP flow sharing a dumbbell
// bottleneck with plain RAP flows, Sack-TCP flows, and an optional CBR
// burst (tests T1 and T2), plus single-flow setups for Figs 1 and 2.
package scenario

import (
	"qav/internal/core"
	"qav/internal/flow"
	"qav/internal/sim"
	"qav/internal/transport"
)

// ccFlow is a congestion-controlled flow in the simulator: the shared
// flow.Driver (the QA + congestion-control loop; Tr, Ctrl and the
// per-layer byte counters are its fields) plus what only the simulator
// has — the engine events that schedule paced sends and periodic steps,
// and the packets that carry data to the sink and ACKs back.
type ccFlow struct {
	flow.Driver

	eng     *sim.Engine
	net     sim.Network
	flowID  int
	ackSize int
	sink    sim.Receiver
	ackSink sim.Receiver

	// sendFn/stepFn hold the loop methods as long-lived function values
	// so per-packet rescheduling does not mint a closure per call.
	sendFn func()
	stepFn func()

	// RecvBytes counts payload bytes delivered to the sink.
	RecvBytes int64
}

// start builds the driver over tr and ctrl (nil for cross traffic) and
// schedules the send and step loops at time at.
func (f *ccFlow) start(eng *sim.Engine, net sim.Network, flowID int, tr transport.Transport, ctrl *core.Controller, at float64) {
	f.Driver = flow.New(tr, ctrl, at)
	f.eng = eng
	f.net = net
	f.flowID = flowID
	f.ackSize = 40
	f.sink = sim.ReceiverFunc(f.recvData)
	f.ackSink = sim.ReceiverFunc(f.recvAck)
	f.sendFn = f.sendLoop
	f.stepFn = f.stepLoop
	eng.At(at, f.sendFn)
	eng.At(at, f.stepFn)
}

func (f *ccFlow) sendLoop() {
	now := f.eng.Now()
	seq, layer := f.Send(now, false)
	p := f.eng.Pool().Get()
	p.FlowID, p.Seq, p.Size = f.flowID, seq, f.PacketSize
	p.Kind, p.SendTime, p.Layer = sim.Data, now, layer
	f.net.SendData(p, f.sink)
	f.eng.At(f.NextSend, f.sendFn)
}

func (f *ccFlow) stepLoop() {
	f.Step(f.eng.Now())
	f.eng.After(f.Tr.StepInterval(), f.stepFn)
}

func (f *ccFlow) recvData(p *sim.Packet) {
	f.RecvBytes += int64(p.Size)
	ack := f.eng.Pool().Get()
	ack.FlowID, ack.Kind, ack.Size, ack.AckSeq = f.flowID, sim.Ack, f.ackSize, p.Seq
	f.net.SendAck(ack, f.ackSink)
}

func (f *ccFlow) recvAck(p *sim.Packet) {
	f.Ack(f.eng.Now(), p.AckSeq)
}

// RAPSource is a plain (non-adaptive-quality) congestion-controlled
// flow with an infinite backlog, used as cross traffic. The name is
// historical — it runs whatever transport backend it is given.
type RAPSource struct {
	ccFlow
}

// NewRAPSource creates a cross-traffic flow over tr starting at start.
func NewRAPSource(eng *sim.Engine, net sim.Network, flowID int, tr transport.Transport, start float64) *RAPSource {
	r := &RAPSource{}
	r.start(eng, net, flowID, tr, nil, start)
	return r
}

// QASource is the paper's system under test: a congestion-controlled
// flow whose packets are assigned to video layers by the quality
// adaptation controller (the driver's Ctrl).
type QASource struct {
	ccFlow
}

// NewQASource creates the quality-adaptive flow over tr. Its controller
// must be constructed by the caller (so scenarios can vary Kmax etc.).
func NewQASource(eng *sim.Engine, net sim.Network, flowID int, tr transport.Transport, ctrl *core.Controller, start float64) *QASource {
	q := &QASource{}
	q.start(eng, net, flowID, tr, ctrl, start)
	return q
}
