//go:build linux

package main

import (
	"fmt"
	"io"
	"net"
	"time"

	"qav/internal/core"
	"qav/internal/figures"
	"qav/internal/metrics"
	"qav/internal/netio"
	"qav/internal/rap"
	"qav/internal/scenario"
	"qav/internal/sim"
	"qav/internal/tcp"
	"qav/internal/trace"
	"qav/internal/transport"
	"qav/internal/transport/delay"
	"qav/internal/transport/greedy"
	"qav/internal/video"
)

// Isolated layer timings: each public call is driven on its own, in the
// state the serving path or the simulator leaves it in, for one slice of
// the budget per repetition; the best of three repetitions is reported,
// in ns (or the stated unit) per call. They attribute: a change to one
// layer should move its own number here and nobody else's.

// timed runs n calls and returns how long the calls themselves took
// (set-up it has to interleave stays outside the returned time).
type timed func(n int) time.Duration

// block is how many calls sit between two clock readings when a timed
// body must stop the clock for interleaved work: it keeps the two
// time.Now calls under 2 ns per call.
const block = 32

// perCall grows n until body(n) keeps the host busy for at least slice,
// three times over, and returns the best ns per call. Growth goes by the
// wall time of the whole body, so a body that times a small part of
// what it does still costs about one slice per repetition.
func perCall(slice time.Duration, body timed) float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		for n := block; ; {
			t0 := time.Now()
			d := body(n)
			wall := time.Since(t0)
			if wall >= slice || n >= 1<<30 {
				if per := float64(d.Nanoseconds()) / float64(n); rep == 0 || per < best {
					best = per
				}
				break
			}
			if wall < slice/16 {
				n *= 8
			} else {
				n = (n*int(slice/wall+1) + block) / block * block
			}
		}
	}
	return best
}

// loop times n plain calls of f.
func loop(f func()) timed {
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(t0)
	}
}

var sink int // keeps results alive so calls are not optimised away

// steadyController returns a controller that has played for 20 s at
// rate R with three layers' worth of bandwidth, plus the clock it is at.
func steadyController() (c *core.Controller, now float64) {
	c, err := core.NewController(core.Params{C: 6_000, Kmax: 2, MaxLayers: maxLayers, StartupSec: 0.2, MaxEvents: 4096})
	if err != nil {
		panic(err)
	}
	const R, S, pkt = 20_000.0, 25_000.0, 512
	for now < 20 {
		now += pkt / R
		c.OnDelivered(now, c.PickLayer(now, R, S, pkt), pkt)
	}
	return c, now
}

// timing is one isolated measurement: ns per call of body, divided by
// per to reach the metric's unit.
type timing struct {
	name string
	per  float64
	body timed
}

// layerTimings times every isolated call, sharing budget equally (three
// repetitions each, at most 200 ms a repetition).
func layerTimings(budget time.Duration, ref *simRef) (map[string]float64, error) {
	var ts []timing
	add := func(name string, body timed) { ts = append(ts, timing{name, 1, body}) }
	addIn := func(name string, per float64, body timed) { ts = append(ts, timing{name, per, body}) }
	const pkt = 512
	payload := make([]byte, pkt-netio.DataHeaderLen)
	buf := make([]byte, pkt)

	// netio wire format.
	hdr := netio.DataHeader{Seq: 1 << 20, Layer: 2, LayerOff: 1 << 24, SendMicros: 1 << 30}
	add("netio.wire.encode_data_ns", loop(func() {
		hdr.Seq++
		n, _ := netio.EncodeData(buf, hdr, payload)
		sink += n
	}))
	add("netio.wire.decode_data_ns", loop(func() {
		h, p, _ := netio.DecodeData(buf)
		sink += int(h.Seq) + len(p)
	}))
	abuf := make([]byte, netio.AckLen)
	ack := netio.Ack{AckSeq: 1 << 20, EchoMicros: 1 << 30, NackLayer: netio.NoNack}
	add("netio.wire.encode_ack_ns", loop(func() {
		ack.AckSeq++
		n, _ := netio.EncodeAck(abuf, ack)
		sink += n
	}))
	add("netio.wire.decode_ack_ns", loop(func() {
		a, _ := netio.DecodeAck(abuf)
		sink += int(a.AckSeq)
	}))

	// netio batch I/O: 32 x 512 B across a loopback socket pair.
	for _, kind := range []netio.BatchKind{netio.BatchMmsg, netio.BatchGeneric} {
		w, r, err := batchPair(kind, pkt)
		if err != nil {
			return nil, err
		}
		defer w.close()
		add("netio.batch."+string(kind)+"_write_ns_per_pkt", w.timeWrite)
		add("netio.batch."+string(kind)+"_read_ns_per_pkt", r.timeRead)
	}

	// core.Controller at steady state.
	c, now := steadyController()
	const R, S = 20_000.0, 25_000.0
	add("core.controller.pick_layer_ns", loop(func() {
		now += pkt / R
		c.OnDelivered(now, c.PickLayer(now, R, S, pkt), pkt)
	}))
	add("core.controller.tick_ns", loop(func() {
		now += 1e-4
		c.Tick(now, R, S)
	}))
	add("core.controller.on_delivered_ns", loop(func() { c.OnDelivered(now, 0, 1) }))
	cb, nowb := steadyController()
	// A backoff marks the allocation stale, so the Tick that follows
	// pays for the new plan: the pair is what one backoff costs. The
	// packets in between let the buffers recover as they would.
	add("core.controller.on_backoff_ns", func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			cb.OnBackoff(nowb, R/2, S)
			cb.Tick(nowb, R/2, S)
			d += time.Since(t0)
			for k := 0; k < 40; k++ {
				nowb += pkt / R
				cb.OnDelivered(nowb, cb.PickLayer(nowb, R, S, pkt), pkt)
			}
		}
		return d
	})

	// rap.Sender: sends and ACKs timed apart, in blocks.
	snd := rap.NewSender(rap.Config{PacketSize: pkt, MaxRate: 16_000, InitialRTT: 0.02})
	var seqs [block]int64
	clock := 0.0
	sendAck := func(timeSend bool) timed {
		return func(n int) time.Duration {
			var d time.Duration
			for i := 0; i < n; i += block {
				t0 := time.Now()
				for k := range seqs {
					clock += 1e-3
					seqs[k] = snd.OnSend(clock)
				}
				t1 := time.Now()
				for _, s := range seqs {
					clock += 1e-5
					if b := snd.OnAck(clock, s); b != nil {
						sink++
					}
				}
				if timeSend {
					d += t1.Sub(t0)
				} else {
					d += time.Since(t1)
				}
				snd.Step(clock)
			}
			return d
		}
	}
	add("rap.sender.on_send_ns", sendAck(true))
	add("rap.sender.on_ack_ns", sendAck(false))
	add("rap.sender.step_ns", loop(func() {
		clock += snd.StepInterval()
		if b := snd.Step(clock); b != nil {
			sink++
		}
	}))

	// transport backends: one send and its ACK per call, a Step per block.
	base := transport.BaseConfig{PacketSize: pkt, MaxRate: 16_000, InitialRTT: 0.02}
	backends := []struct {
		name string
		tr   transport.Transport
	}{
		{"rap", transport.NewRAP(rap.Config{PacketSize: pkt, MaxRate: 16_000, InitialRTT: 0.02})},
		{"delay", delay.New(delay.Config{Base: base})},
		{"greedy", greedy.New(greedy.Config{Base: base})},
	}
	for _, be := range backends {
		tr, t, i := be.tr, 0.0, 0
		add("transport."+be.name+".send_ack_ns", loop(func() {
			t += 1e-3
			seq := tr.OnSend(t)
			if b := tr.OnAck(t+2e-4, seq); b != nil {
				sink++
			}
			if i++; i%block == 0 {
				tr.Step(t)
			}
		}))
	}

	// video.Receiver: in-order delivery of one layer at its playout rate.
	rcv, err := video.NewReceiver(video.Config{C: 6_000, MaxLayers: maxLayers})
	if err != nil {
		return nil, err
	}
	var off int64
	vt := 0.0
	add("video.receiver.deliver_advance_ns", loop(func() {
		vt += pkt / 6_000.0
		rcv.Deliver(vt, 0, off, pkt)
		off += pkt
	}))

	hist := metrics.NewHistogram(metrics.HistogramOpts{})
	hv := 1e-4
	add("metrics.histogram.observe_ns", loop(func() {
		hv *= 1.0001
		if hv > 1 {
			hv = 1e-4
		}
		hist.Observe(hv)
	}))

	// Simulator parts.
	add("sim.sched.replay_ns_per_op", func(n int) time.Duration {
		reps := (n + len(ref.ops) - 1) / len(ref.ops)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			sink += sim.ReplaySched(sim.SchedCalendar, ref.ops)
		}
		return time.Duration(float64(time.Since(t0)) * float64(n) / float64(reps*len(ref.ops)))
	})
	add("sim.link.offer_deliver_ns_per_pkt", func(n int) time.Duration {
		eng := sim.NewEngine()
		l := sim.NewLink(eng, sim.NewDropTail(1<<16), 1e6, 0.001)
		dst := sim.ReceiverFunc(func(p *sim.Packet) { sink += p.Size })
		sent := 0
		var feed func()
		feed = func() {
			if sent++; sent > n {
				return
			}
			p := eng.Pool().Get()
			p.Seq, p.Size, p.Dst = int64(sent), pkt, dst
			l.Offer(p)
			eng.After(0.0006, feed)
		}
		eng.At(0, feed)
		t0 := time.Now()
		eng.Run()
		return time.Since(t0)
	})

	eng := sim.NewEngine()
	pool := eng.Pool()
	queues := []struct {
		name string
		q    sim.Queue
	}{
		{"droptail", sim.NewDropTail(1 << 20)},
		{"red", sim.NewRED(sim.REDConfig{LimitBytes: 1 << 20, MeanPktSize: pkt, Seed: 1})},
	}
	for _, qq := range queues {
		q := qq.q
		for i := 0; i < 8; i++ { // a standing queue, as at a busy bottleneck
			p := pool.Get()
			p.Size = pkt
			q.Enqueue(p)
		}
		add("sim.queue."+qq.name+"_ns", loop(func() {
			p := pool.Get()
			p.Size = pkt
			if !q.Enqueue(p) {
				pool.Put(p)
			}
			pool.Put(q.Dequeue())
		}))
	}
	add("sim.pool.get_put_ns", loop(func() { pool.Put(pool.Get()) }))

	add("tcp.source.ns_per_pkt", func(n int) time.Duration {
		eng := sim.NewEngine()
		net := sim.NewDumbbell(eng, sim.DumbbellConfig{Rate: 1e6, Delay: 0.010, AccessDelay: 0.005, QueueBytes: 60_000})
		src := tcp.NewSource(eng, net, tcp.Config{PacketSize: pkt})
		t0 := time.Now()
		for until := 1.0; src.SentPkts < int64(n); until++ {
			eng.RunUntil(until)
		}
		return time.Since(t0) * time.Duration(n) / time.Duration(src.SentPkts)
	})

	// Tracing and reporting, on the reference run's own result.
	var ser trace.Series
	ser.Reserve(1 << 16)
	st := 0.0
	add("trace.series.add_ns", loop(func() {
		if ser.Len() == 1<<16 { // a long run's worth of samples, reserved up front as the sampler does
			ser.T, ser.V = ser.T[:0], ser.V[:0]
		}
		st += 0.1
		ser.Add(st, st)
	}))
	addIn("trace.set.write_tsv_ms", 1e6, loop(func() {
		if err := ref.res.Series.WriteTSV(io.Discard); err != nil {
			panic(err)
		}
	}))
	addIn("metrics.registry.snapshot_us", 1e3, loop(func() {
		sink += len(ref.res.Metrics.Snapshot().Counters)
	}))
	addIn("scenario.report_ms", 1e6, loop(func() {
		sink += len(ref.res.Report().Name)
	}))
	addIn("figures.render_tables_ms", 1e6, loop(func() {
		if err := figures.RenderTables(io.Discard, ref.cells); err != nil {
			panic(err)
		}
	}))

	slice := budget / time.Duration(3*len(ts))
	if slice > 200*time.Millisecond {
		slice = 200 * time.Millisecond
	}
	m := map[string]float64{}
	for _, t := range ts {
		m[t.name] = perCall(slice, t.body) / t.per
	}
	m["sim.sched.share"] = m["sim.sched.replay_ns_per_op"] * float64(len(ref.ops)) / float64(ref.runWall.Nanoseconds())
	return m, nil
}

// simRef is one recorded reference run (T1, Kmax 2, 40 simulated s):
// its scheduler trace, its result to report on, how long it took
// without the recorder, and a full table's worth of cells to render.
type simRef struct {
	cfg     scenario.Config
	res     *scenario.Result
	ops     []sim.SchedOp
	runWall time.Duration
	cells   []figures.TableCell
}

func refConfig() scenario.Config {
	cfg := scenario.MustPreset("T1", scenario.WithKmax(2), scenario.WithScale(figures.DefaultScale))
	cfg.Duration = 40
	return cfg
}

func newSimRef() (*simRef, error) {
	ref := &simRef{cfg: refConfig()}
	rec := &sim.SchedRecorder{}
	cfg := ref.cfg
	cfg.SchedRec = rec
	cfg.Metrics = metrics.NewRegistry()
	res, err := scenario.Run(cfg)
	if err != nil {
		return nil, err
	}
	ref.res, ref.ops = res, rec.Ops
	if len(ref.ops) == 0 {
		return nil, fmt.Errorf("reference run recorded no scheduler operations")
	}
	for i := 0; i < 3; i++ {
		cfg := ref.cfg
		cfg.Metrics = metrics.NewRegistry()
		t0 := time.Now()
		if _, err := scenario.Run(cfg); err != nil {
			return nil, err
		}
		if d := time.Since(t0); i == 0 || d < ref.runWall {
			ref.runWall = d
		}
	}
	for _, test := range []string{"T1", "T2"} {
		for _, k := range paperKmaxes {
			ref.cells = append(ref.cells, figures.TableCell{Test: test, Kmax: k, DropStats: res.Stats})
		}
	}
	return ref, nil
}

// batchEnd is one end of a loopback socket pair with its batch buffers.
type batchEnd struct {
	bc    netio.BatchConn
	conns [2]*net.UDPConn
	ms    []netio.Message
	peer  *batchEnd
}

// batchPair returns a writer and a reader of kind joined over loopback.
func batchPair(kind netio.BatchKind, pkt int) (w, r *batchEnd, err error) {
	var conns [2]*net.UDPConn
	for i := range conns {
		if conns[i], err = net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
			return nil, nil, err
		}
	}
	ends := [2]*batchEnd{}
	for i := range ends {
		e := &batchEnd{conns: conns, ms: make([]netio.Message, block)}
		if e.bc, err = netio.NewBatchConn(conns[i], kind); err != nil {
			return nil, nil, err
		}
		for j := range e.ms {
			e.ms[j] = netio.Message{Buf: make([]byte, 2048), N: pkt, Addr: conns[1-i].LocalAddr().(*net.UDPAddr).AddrPort()}
		}
		e.bc.SetReadDeadline(time.Now().Add(time.Hour)) // a lost datagram fails the run instead of hanging it
		ends[i] = e
	}
	ends[0].peer, ends[1].peer = ends[1], ends[0]
	return ends[0], ends[1], nil
}

func (e *batchEnd) close() {
	for _, c := range e.conns {
		c.Close()
	}
}

func (e *batchEnd) writeBlock() {
	for j := range e.ms {
		e.ms[j].N = 512
	}
	if n, err := e.bc.WriteBatch(e.ms); err != nil || n != len(e.ms) {
		panic(fmt.Sprintf("WriteBatch: %d of %d: %v", n, len(e.ms), err))
	}
}

func (e *batchEnd) readBlock() {
	for got := 0; got < len(e.ms); {
		n, err := e.bc.ReadBatch(e.ms[got:])
		if err != nil {
			panic(fmt.Sprintf("ReadBatch after %d of %d: %v", got, len(e.ms), err))
		}
		got += n
	}
}

// timeWrite times the writes of n packets sent a block at a time; the
// peer drains each block off the clock.
func (e *batchEnd) timeWrite(n int) time.Duration {
	var d time.Duration
	for i := 0; i < n; i += block {
		t0 := time.Now()
		e.writeBlock()
		d += time.Since(t0)
		e.peer.readBlock()
	}
	return d
}

// timeRead times the reads of n packets the peer sent off the clock.
func (e *batchEnd) timeRead(n int) time.Duration {
	var d time.Duration
	for i := 0; i < n; i += block {
		e.peer.writeBlock()
		t0 := time.Now()
		e.readBlock()
		d += time.Since(t0)
	}
	return d
}
