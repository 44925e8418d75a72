//go:build linux

package main

import (
	"bytes"
	"fmt"
	"time"

	"qav/internal/core"
	"qav/internal/figures"
	"qav/internal/metrics"
	"qav/internal/netio"
	"qav/internal/rap"
	"qav/internal/scenario"
	"qav/internal/sim"
)

// The server runs in another process and tracing inside it is a later
// change, so the traced serve run is a replay: one goroutine drives 64
// sessions through the public calls a shard makes, in a shard's order,
// over a real loopback socket pair, with a span around every call.

const (
	replaySessions = 64
	replayPkt      = 512
	replayRTT      = 1e-4 // seconds on the protocol's clock between a send and its ACK
)

type replaySession struct {
	snd      *rap.Sender
	ctrl     *core.Controller
	lastStep float64
}

// serveReplay is the replay's state: the sessions, the socket pair they
// talk over, and the protocol's clock.
type serveReplay struct {
	srv, cli *batchEnd
	sess     [replaySessions]replaySession
	payload  []byte
	seqLayer [replaySessions][256]uint8 // seq -> layer, as the server's seqRing keeps it
	now      float64                    // the protocol's clock: one inter-packet gap per visit
	round    int
}

func newServeReplay() (*serveReplay, error) {
	srv, cli, err := batchPair(netio.BatchAuto, replayPkt)
	if err != nil {
		return nil, err
	}
	rp := &serveReplay{srv: srv, cli: cli, payload: make([]byte, replayPkt-netio.DataHeaderLen)}
	for i := range rp.sess {
		ctrl, err := core.NewController(core.Params{C: 6_000, Kmax: 2, MaxLayers: maxLayers, StartupSec: 0.2, MaxEvents: 4096})
		if err != nil {
			srv.close()
			return nil, err
		}
		rp.sess[i] = replaySession{ctrl: ctrl,
			snd: rap.NewSender(rap.Config{PacketSize: replayPkt, MaxRate: 16_000, InitialRTT: 0.02})}
	}
	return rp, nil
}

func (rp *serveReplay) close() { rp.srv.close() }

// run drives rounds more rounds of one batch each under tr (nil =
// untraced) and returns their packets per second of host time.
func (rp *serveReplay) run(tr *tracer, rounds int) (float64, error) {
	srv, cli, sess, payload, seqLayer := rp.srv, rp.cli, &rp.sess, rp.payload, &rp.seqLayer
	t0 := time.Now()
	for end := rp.round + rounds; rp.round < end; rp.round++ {
		r := rp.round
		rp.now += replayPkt / 16_000.0 / (replaySessions / block)
		now := rp.now
		first := (r * block) % replaySessions
		root := tr.begin("serve.harness:round", -1, int32(r))
		for k := 0; k < block; k++ {
			id := int32(first + k)
			s := &sess[id]
			if now-s.lastStep >= s.snd.StepInterval() {
				sp := tr.begin("rap:Sender.Step", root, id)
				b := s.snd.Step(now)
				tr.end(sp)
				if b != nil {
					sp = tr.begin("core:Controller.OnBackoff", root, id)
					s.ctrl.OnBackoff(now, b.NewRate, s.snd.ConservativeSlope())
					tr.end(sp)
				}
				s.lastStep = now
			}
			sp := tr.begin("core:Controller.PickLayer", root, id)
			layer := s.ctrl.PickLayer(now, s.snd.Rate(), s.snd.ConservativeSlope(), replayPkt)
			tr.end(sp)
			sp = tr.begin("rap:Sender.OnSend", root, id)
			seq := s.snd.OnSend(now)
			tr.end(sp)
			seqLayer[id][seq&255] = uint8(layer)
			sp = tr.begin("netio.wire:EncodeData", root, id)
			n, err := netio.EncodeData(srv.ms[k].Buf, netio.DataHeader{Seq: seq, Layer: uint8(layer), SendMicros: uint64(now * 1e6)}, payload)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			srv.ms[k].N = n
		}
		sp := tr.begin("netio.batch:WriteBatch", root, -1)
		if n, err := srv.bc.WriteBatch(srv.ms); err != nil || n != block {
			return 0, fmt.Errorf("replay: data WriteBatch %d of %d: %v", n, block, err)
		}
		tr.end(sp)
		sp = tr.begin("netio.batch:ReadBatch", root, -1)
		cli.readBlock()
		tr.end(sp)
		for k := 0; k < block; k++ {
			id := int32(first + k)
			sp := tr.begin("netio.wire:DecodeData", root, id)
			h, _, err := netio.DecodeData(cli.ms[k].Buf[:replayPkt])
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			sp = tr.begin("netio.wire:EncodeAck", root, id)
			_, err = netio.EncodeAck(cli.ms[k].Buf, netio.Ack{AckSeq: h.Seq, EchoMicros: h.SendMicros, NackLayer: netio.NoNack})
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			cli.ms[k].N = netio.AckLen // ReadBatch left the sender's address in Addr: the reply goes there
		}
		sp = tr.begin("netio.batch:WriteBatch", root, -1)
		if n, err := cli.bc.WriteBatch(cli.ms); err != nil || n != block {
			return 0, fmt.Errorf("replay: ack WriteBatch %d of %d: %v", n, block, err)
		}
		tr.end(sp)
		sp = tr.begin("netio.batch:ReadBatch", root, -1)
		srv.readBlock()
		tr.end(sp)
		for k := 0; k < block; k++ {
			id := int32(first + k)
			s := &sess[id]
			sp := tr.begin("netio.wire:DecodeAck", root, id)
			a, err := netio.DecodeAck(srv.ms[k].Buf[:netio.AckLen])
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			sp = tr.begin("rap:Sender.OnAck", root, id)
			b := s.snd.OnAck(now+replayRTT, a.AckSeq)
			tr.end(sp)
			if b != nil {
				return 0, fmt.Errorf("replay: backoff on a lossless loopback pair")
			}
			sp = tr.begin("core:Controller.OnDelivered", root, id)
			s.ctrl.OnDelivered(now+replayRTT, int(seqLayer[id][a.AckSeq&255]), replayPkt)
			tr.end(sp)
		}
		tr.end(root)
	}
	return float64(rounds*block) / time.Since(t0).Seconds(), nil
}

// simReplay is the simulator side of the traced run: the reference
// scenario built, run, reported, rendered and written out, then its
// scheduler trace replayed, each under its own span.
func simReplay(tr *tracer, ref *simRef) error {
	root := tr.begin("sim.harness:reference", -1, 0)
	sp := tr.begin("scenario.run:MustPreset", root, 0)
	cfg := refConfig()
	tr.end(sp)
	cfg.Metrics = metrics.NewRegistry()
	sp = tr.begin("scenario.run:Run", root, 0)
	res, err := scenario.Run(cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("scenario.report:Result.Report", root, 0)
	rep := res.Report()
	tr.end(sp)
	if rep.StallSec > 0 {
		return fmt.Errorf("reference run stalled %.3f s", rep.StallSec)
	}
	var out bytes.Buffer
	sp = tr.begin("figures.render:RenderTables", root, 0)
	err = figures.RenderTables(&out, ref.cells)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("trace.tsv:Set.WriteTSV", root, 0)
	err = res.Series.WriteTSV(&out)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("sim.sched:ReplaySched", root, 0)
	pops := sim.ReplaySched(sim.SchedCalendar, ref.ops)
	tr.end(sp)
	if pops == 0 {
		return fmt.Errorf("scheduler replay popped no events")
	}
	tr.end(root)
	return nil
}
