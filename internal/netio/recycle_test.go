package netio

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"qav/internal/core"
	"qav/internal/transport"
)

// sessionState is what a stream's future depends on and its owner can
// read: the controller's decisions and buffers, the sender's counters
// and rate, the driver's per-layer bytes and pace, the queued requests.
type sessionState struct {
	Stats               core.DropStats
	Layers              int
	Bufs                []float64
	Playing             bool
	PlayedSec, LayerSec float64
	StallSec            float64
	Tr                  transport.Counters
	Rate, SRTT          float64
	Sent, Delivered     []int64
	NextSend            float64
	Nacks               []nack
}

func stateOf(st *session) sessionState {
	c := st.flow.Ctrl
	s := sessionState{
		Stats: c.Stats(), Layers: c.ActiveLayers(), Bufs: c.Buffers(), Playing: c.Playing(),
		PlayedSec: c.PlayedSec, LayerSec: c.LayerSeconds, StallSec: c.StallSec(),
		Tr: st.flow.Tr.Counters(), Rate: st.flow.Tr.Rate(), SRTT: st.flow.Tr.SRTT(),
		Sent:      append([]int64(nil), st.flow.SentByLayer...),
		Delivered: append([]int64(nil), st.flow.DeliveredByLayer...),
		NextSend:  st.flow.NextSend,
	}
	for i := 0; i < st.nacks.n; i++ {
		s.Nacks = append(s.Nacks, st.nacks.buf[(st.nacks.head+i)%len(st.nacks.buf)])
	}
	return s
}

// recycleCfg is one viewer of four 6 kB/s layers under a 40 kB/s
// cap: enough headroom to add every layer, so a loss phase has layers
// to drop.
const recyclePkt, recycleRTT, recycleLayers = 512, 0.05, 4

var recycleCfg = MultiConfig{
	QA:  core.Params{C: 6_000, Kmax: 2, MaxLayers: recycleLayers, StartupSec: 0.2},
	RAP: transport.RAPConfig{PacketSize: recyclePkt, InitialRTT: recycleRTT, MaxRate: 40_000},
}

// traceStats counts what a random trace made its sessions do.
type traceStats struct{ packets, repairs, backoffs, adds, drops int64 }

// runTrace drives sts in lockstep from now until the clock reaches end,
// through one seeded random trace: every packet each builds must be
// byte-identical to the first's. The viewer ACKs each packet after one
// to one and a half RTTs (so ACKs reorder); in every other 2 s phase it
// withholds one ACK in three, so RAP backs off and layers drop, and one
// ACK in twenty carries a retransmission request, some of them out of
// range or for a layer that does not exist. Every 500 events the
// sessions' states must agree too.
func runTrace(t *testing.T, seed int64, now, end float64, ins *sessionInstruments, sts ...*session) (float64, traceStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type ackAt struct {
		at float64
		a  Ack
	}
	var acks []ackAt
	var ts traceStats
	bufs := make([][]byte, len(sts))
	for i := range bufs {
		bufs[i] = make([]byte, recyclePkt)
	}
	payload := make([]byte, recyclePkt-DataHeaderLen)
	first := sts[0]
	q0, tr0 := first.flow.Ctrl.Stats(), first.flow.Tr.Counters()
	for ev := 0; now < end; ev++ {
		if ev%500 == 0 {
			want := stateOf(first)
			for i, st := range sts[1:] {
				if got := stateOf(st); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d event %d t=%.3f: session %d state\n%+v\nwant\n%+v", seed, ev, now, i+1, got, want)
				}
			}
		}
		next := first.flow.NextSend
		if len(acks) > 0 && acks[0].at <= next {
			a := acks[0]
			acks = acks[1:]
			now = a.at
			for _, st := range sts {
				st.onAck(now, a.a, ins)
			}
			continue
		}
		now = next
		retx := ins.Retransmits.Load()
		n0 := first.buildPacket(now, bufs[0], payload, ins)
		if ins.Retransmits.Load() != retx {
			ts.repairs++
		}
		for i, st := range sts[1:] {
			if st.flow.NextSend != next {
				t.Fatalf("seed %d t=%.6f: session %d next send %.9f, want %.9f", seed, now, i+1, st.flow.NextSend, next)
			}
			if n := st.buildPacket(now, bufs[i+1], payload, ins); !bytes.Equal(bufs[i+1][:n], bufs[0][:n0]) {
				t.Fatalf("seed %d t=%.6f: session %d built\n%x\nwant\n%x", seed, now, i+1, bufs[i+1][:n], bufs[0][:n0])
			}
		}
		ts.packets++
		h, _, err := DecodeData(bufs[0][:n0])
		if err != nil {
			t.Fatal(err)
		}
		if lossy := int(now/2)%2 == 1; lossy && rng.Intn(3) == 0 {
			continue
		}
		a := Ack{AckSeq: h.Seq, NackLayer: NoNack}
		if rng.Intn(20) == 0 {
			layer := rng.Intn(recycleLayers + 1)
			a.NackLayer, a.NackLen = uint8(layer), recyclePkt
			a.NackOff = rng.Int63n(first.flow.SentByLayer[0]+2*recyclePkt) - recyclePkt
		}
		at := now + recycleRTT*(1+rng.Float64()/2)
		i := sort.Search(len(acks), func(i int) bool { return acks[i].at > at })
		acks = append(acks, ackAt{})
		copy(acks[i+1:], acks[i:])
		acks[i] = ackAt{at, a}
	}
	st := first.flow.Ctrl.Stats()
	ts.adds, ts.drops = int64(st.Adds-q0.Adds), int64(st.Drops-q0.Drops)
	ts.backoffs = first.flow.Tr.Counters().Backoffs - tr0.Backoffs
	return now, ts
}

// TestRecycledSessionMatchesFresh: a session the shard recycles streams
// exactly as a new one. For each of 20 seeds, half of them with RAP's
// fine-grain variant, a session streams through a random history of
// losses, retransmission requests, backoffs, adds and drops; then it
// expires with a request queued, a join from another address takes it off
// the free list, and it and a session newSession builds at the same
// instant run through one more random trace side by side: every data
// packet is byte-identical, and so are the controllers' stats, layers
// and buffers and the drivers' per-layer bytes.
func TestRecycledSessionMatchesFresh(t *testing.T) {
	var hist, trace traceStats
	for seed := int64(1); seed <= 20; seed++ {
		cfg := recycleCfg
		cfg.RAP.FineGrain = seed%2 == 0
		sh := pacerHarness(t, cfg)
		ins := &sh.sessIns
		// A bystander keeps the live count above the free list's, so the
		// expired session is kept.
		sh.handle(inMsg{addr: synthAddr(0), kind: KindReq, durMs: 3_600_000}, 0)
		old := synthAddr(1)
		sh.handle(inMsg{addr: old, kind: KindReq, durMs: 3_600_000}, 0)
		st := sh.sessions[old]
		rng := rand.New(rand.NewSource(seed))
		now, h := runTrace(t, seed, 0, 12+8*rng.Float64(), ins, st)
		if h.backoffs == 0 || h.adds == 0 || h.repairs == 0 {
			t.Fatalf("seed %d: weak history %+v", seed, h)
		}
		hist.add(h)

		// It expires with a retransmission request queued.
		st.onAck(now, Ack{AckSeq: -1, NackLayer: 0, NackLen: recyclePkt}, ins)
		if st.nacks.n == 0 {
			t.Fatalf("seed %d: no request queued at expiry", seed)
		}
		st.deadline = now
		if !sh.expired(st, now) {
			t.Fatalf("seed %d: session not expired at its deadline", seed)
		}
		sh.removeSession(st)
		addr := synthAddr(2)
		sh.handle(inMsg{addr: addr, kind: KindReq, durMs: 3_600_000}, now)
		if sh.sessions[addr] != st || sh.nfree != 0 {
			t.Fatalf("seed %d: the join did not take the expired session off the free list", seed)
		}
		fresh, err := newSession(addr, sh.srv.cfg.QA, sh.srv.cfg.RAP, ins.QA, now)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stateOf(st), stateOf(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: recycled session\n%+v\nwant\n%+v", seed, got, want)
		}
		end, tr := runTrace(t, seed+1000, now, now+20, ins, fresh, st)
		if got, want := stateOf(st), stateOf(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d t=%.3f: recycled session\n%+v\nwant\n%+v", seed, end, got, want)
		}
		trace.add(tr)
	}
	if hist.drops == 0 || trace.drops == 0 || trace.repairs == 0 || trace.backoffs == 0 {
		t.Fatalf("weak run: histories %+v, traces %+v", hist, trace)
	}
	t.Logf("histories %+v; side-by-side traces %+v", hist, trace)
}

func (s *traceStats) add(o traceStats) {
	s.packets += o.packets
	s.repairs += o.repairs
	s.backoffs += o.backoffs
	s.adds += o.adds
	s.drops += o.drops
}

// TestChurnAllocFree: once a shard has churned for a while, a viewer's
// whole life allocates nothing — the join by REQ, the stream with its
// retransmission requests, the expiry, and the rejoin from a new
// address — on both batch kinds. Four viewers, joined 0.4 s apart, each
// live about 1.5 s and rejoin from an address not in the table the
// moment their session expires; every other life ends at its stream
// deadline, the rest by going silent into the idle timeout. Then a
// flash crowd joins and everyone leaves without a rejoin: the free list
// keeps at most half the shard's peak live count.
func TestChurnAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	for _, kind := range availableKinds(t) {
		t.Run(string(kind), func(t *testing.T) {
			conn := listenUDPTB(t)
			defer conn.Close()
			srv, err := newMultiServerConns([]*net.UDPConn{conn}, MultiConfig{
				QA:          core.Params{C: 15_000, Kmax: 2, MaxLayers: 4, StartupSec: 0.1},
				RAP:         transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 100_000},
				IdleTimeout: 300 * time.Millisecond,
			}, kind)
			if err != nil {
				t.Fatal(err)
			}
			const viewers = 4
			// Real destinations nobody reads, twice as many as viewers.
			sinks := make([]netip.AddrPort, 2*viewers)
			for i := range sinks {
				s := listenUDPTB(t)
				defer s.Close()
				sinks[i] = s.LocalAddr().(*net.UDPAddr).AddrPort()
			}
			sh := srv.shards[0]
			type viewer struct {
				addr     netip.AddrPort
				silentAt float64 // +Inf: ACKs to the end, expires at its deadline
				nextAck  int64
			}
			var (
				vs         [viewers]viewer
				now        float64
				joins      int
				byDeadline int64 // lives ended at the deadline
				byIdle     int64
			)
			join := func(v *viewer) {
				addr := sinks[joins%len(sinks)]
				for sh.sessions[addr] != nil {
					joins++
					addr = sinks[joins%len(sinks)]
				}
				joins++
				*v = viewer{addr: addr, silentAt: math.Inf(1)}
				dur := uint32(1500)
				if joins%2 == 0 {
					dur, v.silentAt = 3_600_000, now+1.2
				}
				sh.handle(inMsg{addr: addr, kind: KindReq, durMs: dur}, now)
			}
			churn := true
			step := func() {
				now += 0.02
				for i := range vs {
					if i*20 == int(math.Round(now/0.02)) {
						join(&vs[i]) // the staggered first joins
					}
				}
				sh.pump(now)
				for i := range vs {
					v := &vs[i]
					if v.addr == (netip.AddrPort{}) {
						continue
					}
					st := sh.sessions[v.addr]
					if st == nil {
						if math.IsInf(v.silentAt, 1) {
							byDeadline++
						} else {
							byIdle++
						}
						if !churn {
							*v = viewer{}
							continue
						}
						join(v)
						st = sh.sessions[v.addr]
					}
					if now >= v.silentAt {
						continue
					}
					for sent := st.flow.Tr.Counters().Sent; v.nextAck < sent; v.nextAck++ {
						a := Ack{AckSeq: v.nextAck, NackLayer: NoNack}
						if v.nextAck%16 == 15 { // ask again for the stream's first packet
							a.NackLayer, a.NackLen = 0, 512
						}
						sh.handle(inMsg{addr: v.addr, kind: KindAck, ack: a}, now)
					}
				}
			}
			slice := func() {
				for i := 0; i < 50; i++ {
					step()
				}
			}
			for i := 0; i < 30; i++ {
				slice()
			}
			joins0, retx0 := joins, sh.sessIns.Retransmits.Load()
			deadline0, idle0 := byDeadline, byIdle
			if allocs := testing.AllocsPerRun(20, slice); allocs != 0 {
				t.Fatalf("steady churn (%s): %.1f allocs per 1 s slice, want 0", kind, allocs)
			}
			joins, retx := joins-joins0, sh.sessIns.Retransmits.Load()-retx0
			if byDeadline-deadline0 < 10 || byIdle-idle0 < 10 || retx == 0 {
				t.Fatalf("measured window: %d joins, %d deadline and %d idle expiries, %d retransmissions; want >= 10 of each expiry and a retransmission",
					joins, byDeadline-deadline0, byIdle-idle0, retx)
			}
			t.Logf("measured window: %d joins, %d deadline and %d idle expiries, %d retransmissions, free list %d",
				joins, byDeadline-deadline0, byIdle-idle0, retx, sh.nfree)

			// The flash crowd: 60 more viewers join at once, then nobody
			// ACKs and nobody rejoins.
			sh.writer = discardBatch{}
			churn = false
			for i := range vs {
				vs[i].silentAt = now
			}
			for i := 0; i < 60; i++ {
				sh.handle(inMsg{addr: synthAddr(i), kind: KindReq, durMs: 3_600_000}, now)
			}
			peak := len(sh.sessions)
			for len(sh.sessions) > 0 {
				step()
				n := 0
				for st := sh.free; st != nil; st = st.wnext {
					n++
				}
				if n != sh.nfree || 2*sh.nfree > peak {
					t.Fatalf("t=%.2f: free list of %d (counted %d) after a peak of %d live; want at most %d", now, n, sh.nfree, peak, peak/2)
				}
			}
			if sh.nfree == 0 {
				t.Fatal("the crowd left nothing on the free list")
			}
			t.Logf("a crowd peaking at %d live left %d sessions on the free list", peak, sh.nfree)
		})
	}
}
