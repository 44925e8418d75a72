package sim

import "qav/internal/metrics"

// Network is the interface packet sources send through: data packets
// travel the forward path to the bottleneck and on to their receiver,
// acknowledgements return over the uncongested reverse path. Dumbbell
// implements it. The network owns a packet once handed over and
// eventually releases it to a pool.
type Network interface {
	SendData(p *Packet, dst Receiver)
	SendAck(p *Packet, dst Receiver)
	// BaseRTT returns the zero-queue round-trip propagation time.
	BaseRTT() float64
}

// Dumbbell is the classic single-bottleneck evaluation topology: every
// source shares one bottleneck queue+link on the forward path, and
// acknowledgements return over an uncongested reverse path with a fixed
// delay. This is the topology of the paper's T1/T2 tests (800 Kb/s
// bottleneck, 40 ms round-trip).
type Dumbbell struct {
	Eng   *Engine
	Bneck *Link
	Q     Queue

	accessDelay  float64 // source -> bottleneck, per direction
	reverseDelay float64 // sink -> source (full reverse path)

	// The two hops every flow shares, each one constant delay, so each
	// is a delay line.
	access  *delayLine // source -> bottleneck queue
	reverse *delayLine // sink -> source
}

// DumbbellConfig configures a dumbbell topology.
type DumbbellConfig struct {
	Rate        float64 // bottleneck bandwidth, bytes/s
	Delay       float64 // bottleneck one-way propagation delay, seconds
	AccessDelay float64 // per-flow access-link delay, seconds
	QueueBytes  int     // bottleneck buffer size, bytes
	Queue       Queue   // optional custom queue (overrides QueueBytes)
}

// NewDumbbell builds the topology on eng. Base round-trip time for a
// flow is 2*(AccessDelay + Delay) plus serialization and queueing.
func NewDumbbell(eng *Engine, cfg DumbbellConfig) *Dumbbell {
	q := cfg.Queue
	if q == nil {
		if cfg.QueueBytes <= 0 {
			panic("sim: dumbbell queue size must be positive")
		}
		q = NewDropTail(cfg.QueueBytes)
	}
	if cfg.AccessDelay < 0 {
		panic("sim: dumbbell access delay must be non-negative")
	}
	d := &Dumbbell{
		Eng:          eng,
		Q:            q,
		Bneck:        NewLink(eng, q, cfg.Rate, cfg.Delay),
		accessDelay:  cfg.AccessDelay,
		reverseDelay: cfg.AccessDelay + cfg.Delay,
	}
	d.access = eng.newLine(d.Bneck.Offer)
	d.reverse = eng.newLine(d.deliverAck)
	return d
}

// Instrument registers the topology's engine and bottleneck-link
// metrics on reg; see Engine.Instrument and Link.Instrument.
func (d *Dumbbell) Instrument(reg *metrics.Registry) {
	d.Eng.Instrument(reg)
	d.Bneck.Instrument(reg)
}

// BaseRTT returns the zero-queue round-trip propagation time.
func (d *Dumbbell) BaseRTT() float64 {
	return 2 * (d.accessDelay + d.Bneck.Delay())
}

// SendData pushes a data packet from a source across the access link and
// into the bottleneck; dst receives it if it is not dropped. The network
// owns the packet from here on: it is released to the engine's pool on
// drop or after dst.Recv returns.
func (d *Dumbbell) SendData(p *Packet, dst Receiver) {
	p.Dst = dst
	d.access.after(d.accessDelay, p)
}

// SendAck returns an acknowledgement to dst over the uncongested reverse
// path. Like SendData, the network owns (and eventually releases) the
// packet once handed over.
func (d *Dumbbell) SendAck(p *Packet, dst Receiver) {
	p.Dst = dst
	d.reverse.after(d.reverseDelay, p)
}

func (d *Dumbbell) deliverAck(p *Packet) {
	if p.Dst != nil {
		p.Dst.Recv(p)
	}
	d.Eng.pool.Put(p)
}
