package sim

import (
	"fmt"
	"sort"

	"qav/internal/metrics"
)

// This file implements conservative parallel execution of the dumbbell
// topology: one simulation run split across several engines, each with
// its own calendar queue and packet pool, synchronized by a time
// barrier in the Chandy–Misra style.
//
// Partitioning. The bottleneck queue+link live alone on one engine
// (the "bneck" shard); flows are grouped onto the remaining engines
// ("flow" shards), each flow's source, sink, and transport state all on
// the same shard. Two simulated hops cross a shard boundary:
//
//	source -> bottleneck   takes AccessDelay
//	bottleneck -> sink     takes the bottleneck propagation Delay
//
// The acknowledgement path never crosses: a flow's sink and source
// share a shard, so acks ride a delay line on the flow engine.
//
// Lookahead. Any packet handed across a boundary at virtual time t
// arrives no earlier than t + min(AccessDelay, Delay). That minimum is
// the lookahead L: while every shard executes only events strictly
// below a common horizon, no shard can receive a cross-shard arrival
// below that horizon from work another shard is still doing. Execution
// therefore proceeds in windows [kL, (k+1)L): all shards run their
// local events below the horizon in parallel, park at the barrier, the
// coordinator hands over the mailboxes, and the next window begins.
// An event exactly on the horizon belongs to the next window (see
// Engine.RunBelow), after the barrier has delivered any cross-shard
// packet sharing its timestamp.
//
// Mailboxes. Cross-shard packets travel through double-buffered
// mailboxes: during a window the sender appends to the pending half
// while the receiver drains the current half; at the barrier — all
// workers parked — the coordinator flips the halves. Every buffer
// therefore has exactly one goroutine touching it at any time, with
// the barrier's channel operations ordering the handoff, so the whole
// scheme is lock-free and race-detector-clean. A mailbox is bounded by
// construction: it holds at most one window's worth of traffic, and
// its high-water mark is published by Instrument.
//
// Packet ownership. Packets are pooled per engine (PacketPool), and
// the pools' poison-on-Put discipline requires every packet to return
// to the pool it came from. A data packet is born on its flow's shard,
// crosses to the bneck shard by mailbox, and comes back the same way:
// delivered packets return through the toShard mailbox and are
// released to the owner's pool after Recv; packets the bottleneck
// queue refuses come back through a return box and are released at the
// next window start. The bneck engine's own pool handles no data
// packets at all.

// shardMsg is one cross-shard packet handoff: p becomes visible to the
// receiving shard at virtual time at. pt is the emitting engine's
// virtual clock at the handoff — the instant the serial engine would
// have scheduled the arrival event — and becomes the arrival's
// scheduling-time tie key (Engine.AtFuncPrio), so a sharded arrival
// ties against the receiver's local events exactly as it would have
// serially (a packet reaching a full queue in the same instant the
// link frees a slot is dropped or admitted identically).
//
// pt2 unrolls the recursion one level further: it is the pt of the
// event that emitted the message — the instant *that* event was
// scheduled. When two flows on different shards hand over packets with
// identical at and pt (sends at the very same instant, a routine
// coincidence in phase-locked workloads), the serial engine would have
// ordered the two send events by their own scheduling order, which pt2
// approximates the same way pt does one level up. Only the toBneck
// merge compares it; a deeper tie falls back to FlowID, which matches
// the serial order whenever the tied flows' event chains have been
// coincident all the way back to construction.
type shardMsg struct {
	at  float64
	pt  float64
	pt2 float64
	p   *Packet
}

// mailbox is a double-buffered, single-writer/single-reader channel
// between two shards. Writers append to pending during a window;
// readers drain cur. flip, called only at barriers with both sides
// parked, exchanges the halves.
type mailbox struct {
	cur, pending []shardMsg
	highWater    int
}

func (m *mailbox) put(at, pt, pt2 float64, p *Packet) {
	m.pending = append(m.pending, shardMsg{at, pt, pt2, p})
	if n := len(m.pending); n > m.highWater {
		m.highWater = n
	}
}

// flip publishes pending as cur and recycles the old cur buffer. It
// reports whether the new cur carries any messages.
func (m *mailbox) flip() bool {
	m.cur, m.pending = m.pending, m.cur[:0]
	return len(m.cur) > 0
}

// winCmd tells a worker to run one window: drain mailboxes, then execute
// up to hi (strictly below for interior windows, inclusive with the
// clock advanced to hi for the final one, matching the serial
// RunUntil(Duration)).
type winCmd struct {
	hi    float64
	final bool
}

// shardWorker drives one engine on its own goroutine, lock-step with
// the coordinator: receive a window command, drain mailboxes, run, park.
type shardWorker struct {
	eng     *Engine
	consume func()
	cmds    chan winCmd
	done    chan struct{}
}

func (w *shardWorker) loop() {
	for c := range w.cmds {
		w.consume()
		if c.final {
			w.eng.RunUntil(c.hi)
		} else {
			w.eng.RunBelow(c.hi)
		}
		w.done <- struct{}{}
	}
}

// ShardedDumbbell is the dumbbell topology partitioned across engines
// for parallel execution. It implements the same simulation as
// Dumbbell — the differential suite holds the two to identical
// physics — with flows spread over NumFlowShards engines that all
// share the one bottleneck.
//
// Construction order: create the topology, assign every flow to a
// shard with AssignFlow, build sources on the shard engines against
// their FlowNet fronts, then Run. All construction must happen before
// Run; the topology is not reusable after Run returns.
type ShardedDumbbell struct {
	bneck *Engine
	link  *Link
	q     Queue
	flows []*Engine
	nets  []*ShardNet

	accessDelay  float64
	reverseDelay float64
	lookahead    float64

	owner []int // flowID -> flow shard index; -1 = unassigned

	toBneck []*mailbox // flow shard -> bottleneck (data packets)
	toShard []*mailbox // bottleneck -> flow shard (deliveries)
	returns []*mailbox // bottleneck -> flow shard (dropped packets, pool returns)

	workers []*shardWorker
	merged  []shardMsg // bneck-side merge scratch, reused every window

	arrivals *delayLine // merged access-hop arrivals at the bottleneck

	barriers int64 // completed barrier count, published by Instrument
}

// NewShardedDumbbell builds a dumbbell split across flowShards flow
// engines plus one bottleneck engine. queueFn, when non-nil, builds the
// bottleneck queue on the bneck engine (RED needs the engine clock); otherwise a DropTail of
// cfg.QueueBytes is used. Both cross-shard propagation delays must be
// positive: they are the lookahead that makes conservative windows
// possible.
func NewShardedDumbbell(flowShards int, cfg DumbbellConfig, queueFn func(*Engine) Queue) *ShardedDumbbell {
	if flowShards < 1 {
		panic("sim: sharded dumbbell needs at least one flow shard")
	}
	if cfg.AccessDelay <= 0 || cfg.Delay <= 0 {
		panic("sim: sharded dumbbell needs positive access and link delays (they are the lookahead)")
	}
	d := &ShardedDumbbell{
		bneck:        NewEngine(),
		accessDelay:  cfg.AccessDelay,
		reverseDelay: cfg.AccessDelay + cfg.Delay,
		lookahead:    cfg.AccessDelay,
	}
	if cfg.Delay < d.lookahead {
		d.lookahead = cfg.Delay
	}
	if queueFn != nil {
		d.q = queueFn(d.bneck)
	} else {
		if cfg.QueueBytes <= 0 {
			panic("sim: dumbbell queue size must be positive")
		}
		d.q = NewDropTail(cfg.QueueBytes)
	}
	d.link = NewLink(d.bneck, d.q, cfg.Rate, cfg.Delay)
	d.link.SetOut(shardedOut{d})
	d.arrivals = d.bneck.newLine(d.link.Offer)
	d.flows = make([]*Engine, flowShards)
	d.nets = make([]*ShardNet, flowShards)
	d.toBneck = make([]*mailbox, flowShards)
	d.toShard = make([]*mailbox, flowShards)
	d.returns = make([]*mailbox, flowShards)
	for i := range d.flows {
		d.flows[i] = NewEngine()
		d.nets[i] = newShardNet(d, i)
		d.toBneck[i] = &mailbox{}
		d.toShard[i] = &mailbox{}
		d.returns[i] = &mailbox{}
	}
	return d
}

// NumFlowShards returns the number of flow engines.
func (d *ShardedDumbbell) NumFlowShards() int { return len(d.flows) }

// FlowEngine returns flow shard i's engine; sources for flows assigned
// to shard i must be built on it.
func (d *ShardedDumbbell) FlowEngine(i int) *Engine { return d.flows[i] }

// FlowNet returns flow shard i's network front, the Network that
// sources on shard i send through.
func (d *ShardedDumbbell) FlowNet(i int) *ShardNet { return d.nets[i] }

// BneckEngine returns the bottleneck shard's engine. Between barriers
// it belongs to its worker goroutine; touch it only before Run, from
// an atBarrier callback, or after Run returns.
func (d *ShardedDumbbell) BneckEngine() *Engine { return d.bneck }

// Bneck returns the bottleneck link (same access rules as BneckEngine).
func (d *ShardedDumbbell) Bneck() *Link { return d.link }

// Queue returns the bottleneck queue (same access rules as BneckEngine).
func (d *ShardedDumbbell) Queue() Queue { return d.q }

// Lookahead returns the barrier window width in seconds.
func (d *ShardedDumbbell) Lookahead() float64 { return d.lookahead }

// BaseRTT returns the zero-queue round-trip propagation time.
func (d *ShardedDumbbell) BaseRTT() float64 {
	return 2 * (d.accessDelay + d.link.Delay())
}

// AssignFlow places flowID on flow shard s. Every flow that will send
// through the topology must be assigned before its first packet.
func (d *ShardedDumbbell) AssignFlow(flowID, s int) {
	if s < 0 || s >= len(d.flows) {
		panic(fmt.Sprintf("sim: flow shard %d out of range [0,%d)", s, len(d.flows)))
	}
	for flowID >= len(d.owner) {
		d.owner = append(d.owner, -1)
	}
	d.owner[flowID] = s
}

func (d *ShardedDumbbell) flowShard(flowID int) int {
	if flowID >= len(d.owner) || d.owner[flowID] < 0 {
		panic(fmt.Sprintf("sim: flow %d not assigned to a shard", flowID))
	}
	return d.owner[flowID]
}

// Instrument registers every engine, the bottleneck link, and the
// barrier statistics on reg. Registry Func metrics accumulate across
// registrations, so the per-engine counters sum into the same totals
// the serial topology reports. Snapshots must be taken while the
// workers are parked (before Run, from atBarrier, or after Run).
func (d *ShardedDumbbell) Instrument(reg *metrics.Registry) {
	d.bneck.Instrument(reg)
	for _, e := range d.flows {
		e.Instrument(reg)
	}
	d.link.Instrument(reg)
	reg.CounterFunc("sim.shard.barriers", func() int64 { return d.barriers })
	reg.GaugeFunc("sim.shard.mailbox.highwater", func() float64 {
		hw := 0
		for _, boxes := range [][]*mailbox{d.toBneck, d.toShard, d.returns} {
			for _, m := range boxes {
				if m.highWater > hw {
					hw = m.highWater
				}
			}
		}
		return float64(hw)
	})
}

// Processed returns the total events executed across all engines.
func (d *ShardedDumbbell) Processed() uint64 {
	n := d.bneck.Processed()
	for _, e := range d.flows {
		n += e.Processed()
	}
	return n
}

// consumeBneck drains every flow shard's outbox into the bottleneck
// engine. The boxes are merged into one arrival sequence ordered by
// (arrival time, send instant, sender's scheduling instant, FlowID),
// stably, so packets one shard emitted back-to-back keep their
// execution order; pushing the merged sequence in order onto the
// arrivals line with the send instant as the tie key reproduces the
// serial engine's ordering — both between two arrivals (serially,
// same-time arrivals fire in the order their sends scheduled them,
// which is the order of the sends' own scheduling) and between an
// arrival and a bneck-local event such as the link freeing (serially
// ordered by which was scheduled first). The sequence is sorted by
// (arrival, send instant), the line's key order, and one window's
// arrivals all lie beyond the previous window's: a send in [lo, hi)
// arrives in [lo+AccessDelay, hi+AccessDelay), and the window width
// L is at most AccessDelay.
func (d *ShardedDumbbell) consumeBneck() {
	d.merged = d.merged[:0]
	for _, mb := range d.toBneck {
		d.merged = append(d.merged, mb.cur...)
	}
	sort.SliceStable(d.merged, func(a, b int) bool {
		ma, mb := &d.merged[a], &d.merged[b]
		if ma.at != mb.at {
			return ma.at < mb.at
		}
		if ma.pt != mb.pt {
			return ma.pt < mb.pt
		}
		if ma.pt2 != mb.pt2 {
			return ma.pt2 < mb.pt2
		}
		return ma.p.FlowID < mb.p.FlowID
	})
	for _, m := range d.merged {
		d.arrivals.push(m.at, m.pt, m.p)
	}
}

// consumeFlow drains flow shard i's mailboxes: dropped packets go back
// to the local pool, deliveries go onto the shard's delivery line at
// their arrival times, keyed by the instant the bottleneck transmitted
// them. The bottleneck emitted them in that order, and, as for
// consumeBneck, windows cannot overlap: L is at most the link delay.
func (d *ShardedDumbbell) consumeFlow(i int) {
	eng := d.flows[i]
	for _, m := range d.returns[i].cur {
		eng.pool.Put(m.p)
	}
	net := d.nets[i]
	for _, m := range d.toShard[i].cur {
		net.deliveries.push(m.at, m.pt, m.p)
	}
}

// flipAll hands every mailbox over at a barrier and reports whether
// any carries messages for the next window.
func (d *ShardedDumbbell) flipAll() bool {
	any := false
	for i := range d.flows {
		any = d.toBneck[i].flip() || any
		any = d.toShard[i].flip() || any
		any = d.returns[i].flip() || any
	}
	return any
}

// Run executes the simulation to the given duration. atBarrier, when
// non-nil, is called from the coordinator goroutine after each
// completed window with the horizon just reached — all workers parked,
// so every engine and mailbox is safe to touch — and exactly once with
// final=true after the last event at or below duration has executed.
//
// Interior windows end strictly below their horizon; the final window
// runs inclusively to duration and advances every clock there, exactly
// like the serial path's RunUntil(Duration). Arrivals landing exactly
// on the duration boundary can cascade (a packet delivered at D may
// trigger nothing more, but a packet arriving at the bottleneck at D
// can transmit), so the run keeps flipping and draining until no
// mailbox carries a message dated at or before duration.
//
// Run may be called once.
func (d *ShardedDumbbell) Run(duration float64, atBarrier func(hi float64, final bool)) {
	d.startWorkers()
	defer d.stopWorkers()
	L := d.lookahead
	for k := 0; ; k++ {
		hi := float64(k+1) * L
		final := hi >= duration
		if final {
			hi = duration
		}
		d.flipAll()
		d.dispatch(winCmd{hi, final})
		d.barriers++
		if final {
			break
		}
		if atBarrier != nil {
			atBarrier(hi, false)
		}
	}
	// Drain arrivals dated exactly at duration; anything later stays
	// queued unexecuted, as it would in the serial engine.
	for d.flipAll() {
		d.dispatch(winCmd{duration, true})
		d.barriers++
	}
	if atBarrier != nil {
		atBarrier(duration, true)
	}
}

func (d *ShardedDumbbell) startWorkers() {
	d.workers = make([]*shardWorker, 0, len(d.flows)+1)
	bw := &shardWorker{
		eng:     d.bneck,
		consume: d.consumeBneck,
		cmds:    make(chan winCmd),
		done:    make(chan struct{}),
	}
	d.workers = append(d.workers, bw)
	for i := range d.flows {
		i := i
		w := &shardWorker{
			eng:     d.flows[i],
			consume: func() { d.consumeFlow(i) },
			cmds:    make(chan winCmd),
			done:    make(chan struct{}),
		}
		d.workers = append(d.workers, w)
	}
	for _, w := range d.workers {
		go w.loop()
	}
}

// dispatch runs one window on every worker and waits for all of them.
func (d *ShardedDumbbell) dispatch(c winCmd) {
	for _, w := range d.workers {
		w.cmds <- c
	}
	for _, w := range d.workers {
		<-w.done
	}
}

func (d *ShardedDumbbell) stopWorkers() {
	for _, w := range d.workers {
		close(w.cmds)
	}
	d.workers = nil
}

// shardedOut is the bottleneck link's output in the sharded topology:
// deliveries and drops cross back to the owning flow shard by mailbox
// instead of being scheduled (or released) on the bneck engine.
type shardedOut struct{ d *ShardedDumbbell }

func (o shardedOut) Deliver(at float64, p *Packet) {
	o.d.toShard[o.d.flowShard(p.FlowID)].put(at, o.d.bneck.Now(), o.d.bneck.curPt, p)
}

func (o shardedOut) Drop(p *Packet) {
	o.d.returns[o.d.flowShard(p.FlowID)].put(0, 0, 0, p)
}

// ShardNet is one flow shard's front onto the sharded dumbbell. It
// implements Network: data packets go to the bottleneck's mailbox with
// their access-link arrival time, acknowledgements stay engine-local
// (a flow's sink and source share the shard, so the reverse path never
// crosses a boundary).
type ShardNet struct {
	d   *ShardedDumbbell
	eng *Engine
	idx int

	reverse    *delayLine // sink -> source
	deliveries *delayLine // bottleneck -> sink, drained from the mailbox
}

func newShardNet(d *ShardedDumbbell, idx int) *ShardNet {
	n := &ShardNet{d: d, eng: d.flows[idx], idx: idx}
	n.reverse = n.eng.newLine(n.deliverLocal)
	n.deliveries = n.eng.newLine(n.deliverLocal)
	return n
}

// SendData pushes a data packet toward the bottleneck; it becomes
// visible to the bneck shard at now+AccessDelay, at the next barrier.
func (n *ShardNet) SendData(p *Packet, dst Receiver) {
	p.Dst = dst
	now := n.eng.Now()
	n.d.toBneck[n.idx].put(now+n.d.accessDelay, now, n.eng.curPt, p)
}

// SendAck returns an acknowledgement over the uncongested reverse
// path, entirely on the local engine.
func (n *ShardNet) SendAck(p *Packet, dst Receiver) {
	p.Dst = dst
	n.reverse.after(n.d.reverseDelay, p)
}

// BaseRTT returns the zero-queue round-trip propagation time.
func (n *ShardNet) BaseRTT() float64 { return n.d.BaseRTT() }

// deliverLocal hands a packet to its receiver and releases it to the
// shard's own pool — the pool it was drawn from, per the ownership
// rules above.
func (n *ShardNet) deliverLocal(p *Packet) {
	if p.Dst != nil {
		p.Dst.Recv(p)
	}
	n.eng.pool.Put(p)
}
