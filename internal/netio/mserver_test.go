package netio

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"qav/internal/core"
	"qav/internal/transport"
)

// testMultiServer serves cfg on `shards` SO_REUSEPORT siblings of one
// loopback port (one plain socket off linux, where socket groups are
// unsupported) and stops it when the test ends. The returned channel
// yields Serve's result.
func testMultiServer(t *testing.T, shards int, cfg MultiConfig) (*MultiServer, <-chan error) {
	t.Helper()
	if !ReuseportAvailable() {
		shards = 1
	}
	conns, err := ListenReuseport("udp", "127.0.0.1:0", shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
	})
	if cfg.QA.C == 0 {
		cfg.QA = core.Params{C: 15_000, Kmax: 2, MaxLayers: 6, StartupSec: 0.2}
	}
	if cfg.RAP.PacketSize == 0 {
		cfg.RAP = transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 30_000}
	}
	srv, err := NewMultiServerConns(conns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after cancel")
		}
	})
	return srv, served
}

// needTryRead skips t where the batch layer has no non-blocking read:
// there the shard loop never coalesces.
func needTryRead(t *testing.T) {
	t.Helper()
	conn := listenUDPTB(t)
	defer conn.Close()
	bc, err := NewBatchConn(conn, BatchAuto)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.TryReadBatch(nil); errors.Is(err, ErrNoTryRead) {
		t.Skip("no non-blocking batch read on this platform: the shard loop never coalesces")
	}
}

// coalescedTicks reads the srv.coalesced_ticks counter.
func coalescedTicks(srv *MultiServer) int64 {
	return srv.Metrics().Snapshot().Counters["srv.coalesced_ticks"]
}

// TestMultiServerManyClients runs 32+ concurrent loopback clients with
// staggered joins and two leave waves while metrics snapshots race the
// serving path. Per-client isolation: nobody starves, service is fair.
func TestMultiServerManyClients(t *testing.T) {
	srv, _ := testMultiServer(t, 4, MultiConfig{})

	// Metrics and stats snapshots concurrent with serving: the race
	// detector run in CI is the real assertion here.
	snapDone := make(chan struct{})
	go func() {
		for {
			select {
			case <-snapDone:
				return
			case <-time.After(50 * time.Millisecond):
				srv.Metrics().Snapshot()
				srv.Stats()
			}
		}
	}()
	defer close(snapDone)

	ctx := context.Background()
	var wg sync.WaitGroup
	results := make([]LoadResult, 2)
	// Wave 1: 16 clients that leave early. Wave 2: 20 that stay.
	for w, cfg := range []LoadConfig{
		{Addr: srv.Addr(), Clients: 16, Dur: 1 * time.Second, Stagger: 300 * time.Millisecond, IdleExit: time.Second},
		{Addr: srv.Addr(), Clients: 20, Dur: 2500 * time.Millisecond, Stagger: 700 * time.Millisecond, IdleExit: time.Second},
	} {
		wg.Add(1)
		go func(w int, cfg LoadConfig) {
			defer wg.Done()
			res, err := RunLoad(ctx, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = res
		}(w, cfg)
	}
	wg.Wait()

	for w, res := range results {
		if res.Starved > 0 {
			t.Errorf("wave %d: %d of %d clients starved", w, res.Starved, len(res.PerClient))
		}
		if res.Jain < 0.5 {
			t.Errorf("wave %d: Jain fairness %.3f < 0.5 (min %.0f max %.0f B/s)",
				w, res.Jain, res.MinGoodput, res.MaxGoodput)
		}
	}
	st := srv.Stats()
	if st.Accepted != 36 {
		t.Errorf("accepted %d clients, want 36", st.Accepted)
	}
	if st.SentPkts == 0 || st.AckedPkts == 0 {
		t.Errorf("server sent=%d acked=%d", st.SentPkts, st.AckedPkts)
	}
}

// TestMultiServerNackStormIsolation points a misbehaving client at the
// server — an acknowledgement flood each carrying a retransmission
// request — while well-behaved clients stream, on two shards. The
// storm must be absorbed (bounded nack queue, congestion-controlled
// repair) without stalling the other clients, whichever shard the
// kernel steers each of them to.
func TestMultiServerNackStormIsolation(t *testing.T) {
	srv, _ := testMultiServer(t, 2, MultiConfig{})
	nackStorm(t, srv)
}

// TestOwnedNackStormIsolation is the same storm with attacker and
// victims on one shard: the flood is itself load, so the shard rides it
// out tick-driven, where readBurst bounds each tick's drain.
func TestOwnedNackStormIsolation(t *testing.T) {
	needTryRead(t)
	srv, served := testMultiServer(t, 1, MultiConfig{})
	nackStorm(t, srv)
	if n := coalescedTicks(srv); n == 0 {
		t.Error("a 30k-datagram flood never switched the shard to tick mode")
	}
	select {
	case err := <-served:
		t.Fatalf("shard loop exited during the storm: %v", err)
	default:
	}
}

func nackStorm(t *testing.T, srv *MultiServer) {
	// The attacker joins first and learns a few sequence numbers.
	atk, err := net.DialUDP("udp", nil, mustUDPAddr(t, srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer atk.Close()
	req := make([]byte, ReqLen)
	n, _ := EncodeReq(req, Req{DurationMs: 4000})
	atk.Write(req[:n])
	buf := make([]byte, 2048)
	var lastSeq int64
	var got int64
	for got < 20 {
		atk.SetReadDeadline(time.Now().Add(2 * time.Second))
		nr, err := atk.Read(buf)
		if err != nil {
			t.Fatalf("attacker warmup read: %v", err)
		}
		h, _, err := DecodeData(buf[:nr])
		if err != nil {
			continue
		}
		lastSeq = h.Seq
		got++
		ack := make([]byte, AckLen)
		na, _ := EncodeAck(ack, Ack{AckSeq: h.Seq, NackLayer: NoNack})
		atk.Write(ack[:na])
	}

	// Storm: 30k acks, every one demanding a base-layer retransmission,
	// over 200 distinct offsets (the pending-request dedup cannot absorb
	// them all, so the queue bound is exercised).
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		ack := make([]byte, AckLen)
		for i := 0; i < 30_000; i++ {
			na, _ := EncodeAck(ack, Ack{
				AckSeq:    lastSeq,
				NackLayer: 0,
				NackOff:   int64(i%200) * 512,
				NackLen:   512,
			})
			atk.Write(ack[:na])
		}
	}()

	res, err := RunLoad(context.Background(), LoadConfig{
		Addr:     srv.Addr(),
		Clients:  8,
		Dur:      2 * time.Second,
		Stagger:  200 * time.Millisecond,
		IdleExit: time.Second,
	})
	<-stormDone
	if err != nil {
		t.Fatal(err)
	}
	if res.Starved > 0 {
		t.Fatalf("%d of 8 well-behaved clients starved during the NACK storm", res.Starved)
	}
	for i, c := range res.PerClient {
		if c.Goodput < 2000 {
			t.Errorf("client %d goodput %.0f B/s: stalled by another client's storm", i, c.Goodput)
		}
	}
	st := srv.Stats()
	if st.NackDrops+st.Retransmits == 0 {
		t.Errorf("storm left no trace: nack drops %d, retransmits %d", st.NackDrops, st.Retransmits)
	}
	t.Logf("storm absorbed: nackdrops=%d retransmits=%d jain=%.3f", st.NackDrops, st.Retransmits, res.Jain)
}

// TestOwnedLoopSurvivesModeSwitches ramps one shard from 4
// clients to 300 and back to 4. At 4 the loop is arrival-driven and
// arms a read deadline every iteration; at 300 it must go tick-driven
// with that deadline still armed and soon expired (if it is not
// cleared, the first non-blocking read after it passes fails, the shard
// goroutine exits, and everyone starves); back at 4 it must return to
// waiting on arrivals. While busy, a newcomer's REQ must still be
// answered within 10 ms: it waits for the next tick, not for a sweep.
func TestOwnedLoopSurvivesModeSwitches(t *testing.T) {
	needTryRead(t)
	srv, served := testMultiServer(t, 1, MultiConfig{})
	alive := func(when string) {
		t.Helper()
		select {
		case err := <-served:
			t.Fatalf("%s: shard loop exited: %v", when, err)
		default:
		}
	}
	load := func(clients int, dur, stagger time.Duration) <-chan LoadResult {
		c := make(chan LoadResult, 1)
		go func() {
			res, err := RunLoad(context.Background(), LoadConfig{
				Addr: srv.Addr(), Clients: clients, Dur: dur, Stagger: stagger, IdleExit: time.Second,
			})
			if err != nil {
				t.Error(err)
			}
			c <- res
		}()
		return c
	}

	// Four viewers for the whole test: they live through both switches.
	steady := load(4, 6*time.Second, 100*time.Millisecond)
	time.Sleep(700 * time.Millisecond)
	if n := coalescedTicks(srv); n != 0 {
		t.Fatalf("4 clients (~0.5 events/tick) already took %d tick-driven iterations", n)
	}

	crowd := load(300, 2*time.Second, 300*time.Millisecond)
	time.Sleep(1200 * time.Millisecond)
	alive("300 clients")
	busy := coalescedTicks(srv)
	if busy == 0 {
		t.Fatal("300 clients never switched the shard to tick mode")
	}
	// Join latency on the busy shard: best of a few newcomers, so that
	// one descheduling of this test process among 300 client goroutines
	// is not charged to the server.
	best := time.Hour
	for try := 0; try < 5 && best >= 10*time.Millisecond; try++ {
		c, err := net.DialUDP("udp", nil, mustUDPAddr(t, srv.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		req := make([]byte, ReqLen)
		n, _ := EncodeReq(req, Req{DurationMs: 200})
		buf := make([]byte, 2048)
		c.SetReadDeadline(time.Now().Add(time.Second))
		sentAt := time.Now()
		c.Write(req[:n])
		if _, err := c.Read(buf); err == nil {
			if d := time.Since(sentAt); d < best {
				best = d
			}
		}
		c.Close()
	}
	if best >= 10*time.Millisecond {
		t.Errorf("REQ to a busy shard: first data after %v at best, want < 10 ms", best)
	}
	if n := coalescedTicks(srv); n == busy {
		t.Error("shard left tick mode while 300 clients were streaming")
	}

	res := <-crowd
	alive("after the crowd left")
	if res.Starved > 0 {
		t.Errorf("%d of 300 clients starved", res.Starved)
	}
	// The crowd's streams are over (RunLoad waits them out); the average
	// needs a few hundred ms to fall below the off threshold.
	time.Sleep(500 * time.Millisecond)
	quiet := coalescedTicks(srv)
	time.Sleep(300 * time.Millisecond)
	if n := coalescedTicks(srv); n != quiet {
		t.Errorf("back at 4 clients the shard is still tick-driven (%d more tick iterations in 300 ms)", n-quiet)
	}

	res = <-steady
	alive("end")
	if res.Starved > 0 {
		t.Fatalf("%d of the 4 long-lived clients starved across the mode switches", res.Starved)
	}
	for i, c := range res.PerClient {
		// 30 kB/s cap; a stream that died at either switch would sit far
		// below a third of it over its 6 s.
		if c.Goodput < 10_000 {
			t.Errorf("long-lived client %d goodput %.0f B/s: stalled at a mode switch?", i, c.Goodput)
		}
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counters["srv.wakeups"] <= snap.Counters["srv.coalesced_ticks"] {
		t.Errorf("wakeups %d <= coalesced ticks %d: arrival-driven iterations uncounted",
			snap.Counters["srv.wakeups"], snap.Counters["srv.coalesced_ticks"])
	}
	if h := snap.Histograms["srv.rxbatch"]; h.Count == 0 || h.Max < 2 {
		t.Errorf("srv.rxbatch %+v: tick drains never saw more than one datagram", h)
	}
	if h := snap.Histograms["srv.pacing.lateness_us"]; h.Count == 0 {
		t.Error("srv.pacing.lateness_us recorded nothing")
	}
	if g := snap.Gauges["srv.rcvbuf_bytes"]; ReuseportAvailable() && g <= 0 {
		t.Errorf("srv.rcvbuf_bytes = %v, want the socket's granted size", g)
	}
}

// TestMultiServerMalformedDatagrams sprays garbage at the serving
// socket while clients stream: truncated headers, bad magic, wrong
// versions, random noise, and data-kind packets. Nothing may panic, and
// the streams must complete.
func TestMultiServerMalformedDatagrams(t *testing.T) {
	srv, _ := testMultiServer(t, 2, MultiConfig{})

	noiseDone := make(chan struct{})
	go func() {
		defer close(noiseDone)
		conn, err := net.DialUDP("udp", nil, mustUDPAddr(t, srv.Addr()))
		if err != nil {
			return
		}
		defer conn.Close()
		rng := rand.New(rand.NewSource(42))
		valid := make([]byte, AckLen)
		EncodeAck(valid, Ack{AckSeq: 1, NackLayer: NoNack})
		data := make([]byte, DataHeaderLen+32)
		EncodeData(data, DataHeader{Seq: 9, Layer: 1}, make([]byte, 32))
		for i := 0; i < 4000; i++ {
			switch i % 5 {
			case 0: // pure noise
				junk := make([]byte, rng.Intn(64))
				rng.Read(junk)
				conn.Write(junk)
			case 1: // valid header, truncated body
				conn.Write(valid[:4+rng.Intn(AckLen-4)])
			case 2: // bad magic
				bad := append([]byte(nil), valid...)
				bad[0] ^= 0xFF
				conn.Write(bad)
			case 3: // wrong version
				bad := append([]byte(nil), valid...)
				bad[2] = 99
				conn.Write(bad)
			case 4: // data packet sent at the server (wrong direction)
				conn.Write(data)
			}
		}
	}()

	res, err := RunLoad(context.Background(), LoadConfig{
		Addr:     srv.Addr(),
		Clients:  2,
		Dur:      1500 * time.Millisecond,
		Stagger:  100 * time.Millisecond,
		IdleExit: time.Second,
	})
	<-noiseDone
	if err != nil {
		t.Fatal(err)
	}
	if res.Starved > 0 {
		t.Fatalf("garbage datagrams stalled %d streams", res.Starved)
	}
	if st := srv.Stats(); st.BadPackets == 0 {
		t.Errorf("no malformed datagrams counted; noise not exercised (stats %+v)", st)
	}
}

// A data header names its layer in one byte and an ACK's NoNack takes
// the last value, so a server with more layers would label layer 256 as
// layer 0 and could never hear a NACK for layer 255.
func TestMultiServerRejectsLayersTheWireCannotName(t *testing.T) {
	conn := listenUDPTB(t)
	defer conn.Close()
	for _, tc := range []struct {
		layers int
		ok     bool
	}{{NoNack, true}, {NoNack + 1, false}, {300, false}} {
		cfg := MultiConfig{
			QA:  core.Params{C: 15_000, Kmax: 2, MaxLayers: tc.layers, StartupSec: 0.2},
			RAP: transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02},
		}
		if _, err := NewMultiServerConns([]*net.UDPConn{conn}, cfg); (err == nil) != tc.ok {
			t.Errorf("MaxLayers %d: err %v, want accepted %v", tc.layers, err, tc.ok)
		}
	}
}

// TestSessionAckForNeverSentSeqIgnored: a client acknowledging a
// sequence the server never sent must not be able to talk its session
// into a backoff. Before the window ignored such ACKs, one of them put
// every outstanding packet beyond the reorder gap: all lost, rate halved.
func TestSessionAckForNeverSentSeqIgnored(t *testing.T) {
	sh := pacerHarness(t, MultiConfig{})
	addr := synthAddr(1)
	now := 0.0
	sh.handle(inMsg{addr: addr, kind: KindReq, durMs: 60_000}, now)
	sess := sh.sessions[addr]
	if sess == nil {
		t.Fatal("session not created")
	}
	for sess.flow.Tr.Outstanding() < 5 {
		now += 0.02
		sh.pump(now)
	}
	rate, out, sent := sess.flow.Tr.Rate(), sess.flow.Tr.Outstanding(), sess.flow.Tr.Counters().Sent
	for _, seq := range []int64{sent, sent + 1000, -7} {
		sh.handle(inMsg{addr: addr, kind: KindAck, ack: Ack{AckSeq: seq, NackLayer: NoNack}}, now)
	}
	if st := sh.srv.Stats(); st.Backoffs != 0 {
		t.Fatalf("ACKs for never-sent sequences caused %d backoffs", st.Backoffs)
	}
	if sess.flow.Tr.Rate() != rate || sess.flow.Tr.Outstanding() != out || sess.flow.Tr.Counters().Lost != 0 {
		t.Fatalf("rate %v -> %v, outstanding %d -> %d, lost %d", rate, sess.flow.Tr.Rate(), out, sess.flow.Tr.Outstanding(), sess.flow.Tr.Counters().Lost)
	}
	// The honest ACKs that follow are all taken.
	for seq := int64(0); seq < sent; seq++ {
		sh.handle(inMsg{addr: addr, kind: KindAck, ack: Ack{AckSeq: seq, NackLayer: NoNack}}, now)
	}
	if sess.flow.Tr.Counters().Acked != sent || sess.flow.Tr.Outstanding() != 0 || sh.srv.Stats().Backoffs != 0 {
		t.Fatalf("after acking all %d: acked %d, outstanding %d, backoffs %d",
			sent, sess.flow.Tr.Counters().Acked, sess.flow.Tr.Outstanding(), sh.srv.Stats().Backoffs)
	}
}

// TestMultiServerAdmissionCap verifies MaxClients: joins beyond the cap
// are refused while the capacity is occupied.
func TestMultiServerAdmissionCap(t *testing.T) {
	srv, _ := testMultiServer(t, 2, MultiConfig{MaxClients: 4})
	req := make([]byte, ReqLen)
	n, _ := EncodeReq(req, Req{DurationMs: 60_000})
	conns := make([]*net.UDPConn, 8)
	for i := range conns {
		c, err := net.DialUDP("udp", nil, mustUDPAddr(t, srv.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	// Re-send joins until the cap is provably full and at least one
	// refusal has been counted (requests may be lost under load).
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		for _, c := range conns {
			c.Write(req[:n])
		}
		time.Sleep(50 * time.Millisecond)
		st := srv.Stats()
		if st.Accepted == 4 && st.Rejected > 0 {
			break
		}
	}
	st := srv.Stats()
	if st.Accepted != 4 {
		t.Fatalf("accepted %d clients, want exactly the cap 4 (stats %+v)", st.Accepted, st)
	}
	if st.Rejected == 0 {
		t.Fatal("no join was ever refused at the cap")
	}
	if got := srv.ActiveClients(); got != 4 {
		t.Fatalf("active clients %d, want 4", got)
	}
}

// TestMultiServerIdleExpiry checks that a client that vanishes without
// acking is swept from the table long before its requested stream ends.
func TestMultiServerIdleExpiry(t *testing.T) {
	srv, _ := testMultiServer(t, 1, MultiConfig{IdleTimeout: 300 * time.Millisecond})
	conn, err := net.DialUDP("udp", nil, mustUDPAddr(t, srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := make([]byte, ReqLen)
	n, _ := EncodeReq(req, Req{DurationMs: 60_000})
	conn.Write(req[:n])
	deadline := time.Now().Add(2 * time.Second)
	joined := false
	for time.Now().Before(deadline) {
		if srv.ActiveClients() == 1 {
			joined = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !joined {
		t.Fatal("client never joined")
	}
	// Never ack: the session must idle out well before its 60 s stream.
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if srv.ActiveClients() == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("silent client still active after idle timeout (stats %+v)", srv.Stats())
}

// TestAllocFreeServeSendLoop is the serving-path tentpole invariant:
// once a session reaches steady state, pumping packets through the
// shard — layer pick, RAP accounting, encode, batched write — and
// feeding the acknowledgements back allocates nothing. At 100 kB/s of
// 512 B packets every 20 ms pump writes a run of about four packets to
// the one viewer, so the mmsg kind's writes take the GSO path (a
// UDP_SEGMENT cmsg per run) throughout the measured window.
func TestAllocFreeServeSendLoop(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	for _, kind := range availableKinds(t) {
		for _, leg := range pumps {
			t.Run(string(kind)+"/"+leg.name, func(t *testing.T) {
				conn := listenUDPTB(t)
				defer conn.Close()
				srv, err := newMultiServerConns([]*net.UDPConn{conn}, MultiConfig{
					QA:  core.Params{C: 15_000, Kmax: 2, MaxLayers: 2, StartupSec: 0.1},
					RAP: transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 100_000},
				}, kind)
				if err != nil {
					t.Fatal(err)
				}
				// A real destination socket; its receive buffer overflowing
				// just drops datagrams, which is fine — nobody reads it.
				sink := listenUDPTB(t)
				defer sink.Close()
				sinkAddr := sink.LocalAddr().(*net.UDPAddr).AddrPort()

				sh := srv.shards[0]
				now := 0.0
				sh.handle(inMsg{addr: sinkAddr, kind: KindReq, durMs: 3_600_000}, now)
				sess := sh.sessions[sinkAddr]
				if sess == nil {
					t.Fatal("session not created")
				}

				ackAll := func(now float64) {
					// Acknowledge everything outstanding (in order) so RAP and
					// the controller reach — and stay in — steady state.
					for seq := sess.flow.Tr.Counters().Acked + sess.flow.Tr.Counters().Lost; seq < sess.flow.Tr.Counters().Sent; seq++ {
						sh.handle(inMsg{addr: sinkAddr, kind: KindAck, ack: Ack{AckSeq: seq, NackLayer: NoNack}}, now)
					}
				}
				minRun := 0 // fewest packets one pump wrote since the last reset
				pumpSlice := func() {
					for i := 0; i < 50; i++ {
						now += 0.02
						if k, _ := leg.pump(sh, now); k < minRun {
							minRun = k
						}
						ackAll(now)
					}
				}
				// Warm up: rate converges to MaxRate, layers fill, pools and
				// map capacity stabilize, controller events quiesce.
				for i := 0; i < 20; i++ {
					pumpSlice()
				}
				minRun = math.MaxInt
				allocs := testing.AllocsPerRun(20, pumpSlice)
				if allocs != 0 {
					t.Fatalf("steady-state serve send loop (%s/%s): %.1f allocs per 1s slice, want 0", kind, leg.name, allocs)
				}
				if minRun < 2 {
					t.Fatalf("a measured pump wrote %d packets, want runs of >= 2 to the viewer", minRun)
				}
			})
		}
		// The tick-driven iteration end to end: acknowledgements travel
		// as datagrams over loopback into the shard's own socket, are
		// taken by the non-blocking drain, and the repeated pump answers.
		t.Run(string(kind)+"/drain", func(t *testing.T) {
			conn := listenUDPTB(t)
			defer conn.Close()
			srv, err := newMultiServerConns([]*net.UDPConn{conn}, MultiConfig{
				QA:  core.Params{C: 15_000, Kmax: 2, MaxLayers: 2, StartupSec: 0.1},
				RAP: transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 100_000},
			}, kind)
			if err != nil {
				t.Fatal(err)
			}
			sh := srv.shards[0]
			if _, err := sh.writer.TryReadBatch(nil); errors.Is(err, ErrNoTryRead) {
				t.Skip("no non-blocking batch read on this platform")
			}
			// The viewer: sends its ACKs for real, never reads its data
			// (a full receive buffer just drops it).
			peer := listenUDPTB(t)
			defer peer.Close()
			peerAddr := peer.LocalAddr().(*net.UDPAddr).AddrPort()
			srvAddr := conn.LocalAddr().(*net.UDPAddr).AddrPort()
			now := 0.0
			sh.handle(inMsg{addr: peerAddr, kind: KindReq, durMs: 3_600_000}, now)
			sess := sh.sessions[peerAddr]
			ack := make([]byte, AckLen)
			drained, minRun := 0, 0
			tickSlice := func() {
				for i := 0; i < 50; i++ {
					now += 0.02
					if k, _ := sh.pumpDue(now); k < minRun {
						minRun = k
					}
					for seq := sess.flow.Tr.Counters().Acked + sess.flow.Tr.Counters().Lost; seq < sess.flow.Tr.Counters().Sent; seq++ {
						n, _ := EncodeAck(ack, Ack{AckSeq: seq, NackLayer: NoNack})
						peer.WriteToUDPAddrPort(ack[:n], srvAddr)
					}
					// Loopback delivers synchronously: the ACKs are queued.
					n, err := sh.drainSocket(now)
					if err != nil {
						t.Fatal(err)
					}
					drained += n
				}
			}
			for i := 0; i < 20; i++ {
				tickSlice()
			}
			drainedBefore := drained
			minRun = math.MaxInt
			if allocs := testing.AllocsPerRun(20, tickSlice); allocs != 0 {
				t.Fatalf("steady-state drain+pump (%s): %.1f allocs per 1s slice, want 0", kind, allocs)
			}
			if minRun < 2 || drained == drainedBefore {
				t.Fatalf("measured window: fewest packets per pump %d (want runs of >= 2), drained %d datagrams", minRun, drained-drainedBefore)
			}
			if sess.flow.Tr.Counters().Acked == 0 {
				t.Fatal("no ACK ever reached the session through the socket")
			}
		})
		// Loss: in every 4 s cycle the viewer acknowledges everything for
		// 2 s, then withholds every third ACK for 2 s, so RAP backs off
		// and the controller drops layers, then re-adds them. The measured
		// window is one 20 s run: an allocation anywhere in it, such as a
		// decision log growing, fails the leg.
		t.Run(string(kind)+"/lossy", func(t *testing.T) {
			conn := listenUDPTB(t)
			defer conn.Close()
			srv, err := newMultiServerConns([]*net.UDPConn{conn}, MultiConfig{
				QA:  core.Params{C: 15_000, Kmax: 2, MaxLayers: 8, StartupSec: 0.1},
				RAP: transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 100_000},
			}, kind)
			if err != nil {
				t.Fatal(err)
			}
			sink := listenUDPTB(t)
			defer sink.Close()
			sinkAddr := sink.LocalAddr().(*net.UDPAddr).AddrPort()
			sh := srv.shards[0]
			now := 0.0
			sh.handle(inMsg{addr: sinkAddr, kind: KindReq, durMs: 3_600_000}, now)
			sess := sh.sessions[sinkAddr]
			if sess == nil {
				t.Fatal("session not created")
			}
			var next int64 // the next sequence to acknowledge or withhold
			slice := 0
			pumpSlice := func() {
				lossy := slice%4 >= 2
				slice++
				for i := 0; i < 50; i++ {
					now += 0.02
					sh.pump(now)
					for ; next < sess.flow.Tr.Counters().Sent; next++ {
						if !lossy || next%3 != 0 {
							sh.handle(inMsg{addr: sinkAddr, kind: KindAck, ack: Ack{AckSeq: next, NackLayer: NoNack}}, now)
						}
					}
				}
			}
			qa := sh.sessIns.QA
			var adds, drops, backoffs int64 // at the start of the last window
			window := func() {
				adds, drops, backoffs = qa.Adds.Load(), qa.Drops.Load(), qa.Backoffs.Load()
				for i := 0; i < 20; i++ {
					pumpSlice()
				}
			}
			// AllocsPerRun's warm-up window sizes the controller's scratch
			// at the first drops; the second window is measured.
			if allocs := testing.AllocsPerRun(1, window); allocs != 0 {
				t.Fatalf("lossy serve send loop (%s): %.0f allocs in 20 s, want 0", kind, allocs)
			}
			adds, drops, backoffs = qa.Adds.Load()-adds, qa.Drops.Load()-drops, qa.Backoffs.Load()-backoffs
			if adds < 1 || drops < 1 || backoffs < 1 {
				t.Fatalf("measured window: %d adds, %d drops, %d backoffs; want each >= 1", adds, drops, backoffs)
			}
			t.Logf("measured window: %d adds, %d drops, %d backoffs", adds, drops, backoffs)
		})
	}
}

// TestRefusedPeerCostsOnlyItself: a session at an address the kernel
// will not send to (port 0) shares every pump with two good ones. Every
// packet of the good sessions arrives, srv.sent counts exactly those,
// and srv.senderrs counts the refused session's.
func TestRefusedPeerCostsOnlyItself(t *testing.T) {
	for _, kind := range availableKinds(t) {
		t.Run(string(kind), func(t *testing.T) {
			conn := listenUDPTB(t)
			defer conn.Close()
			srv, err := newMultiServerConns([]*net.UDPConn{conn}, MultiConfig{
				QA:  core.Params{C: 15_000, Kmax: 2, MaxLayers: 2, StartupSec: 0.1},
				RAP: transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 40_000},
			}, kind)
			if err != nil {
				t.Fatal(err)
			}
			sh := srv.shards[0]
			var rcv []*net.UDPConn
			addrs := []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:0")}
			for i := 0; i < 2; i++ {
				c := listenUDPTB(t)
				defer c.Close()
				rcv = append(rcv, c)
				addrs = append(addrs, c.LocalAddr().(*net.UDPAddr).AddrPort())
			}
			// The refused session joins between the two good ones, so
			// whether the pump visits them in join order or in reverse, a
			// good session's packets follow the refused ones in the batch.
			now := 0.0
			for _, a := range []netip.AddrPort{addrs[1], addrs[0], addrs[2]} {
				sh.handle(inMsg{addr: a, kind: KindReq, durMs: 60_000}, now)
			}
			for i := 0; i < 50; i++ {
				now += 0.02
				sh.pump(now)
				for _, a := range addrs {
					sess := sh.sessions[a]
					for seq := sess.flow.Tr.Counters().Acked + sess.flow.Tr.Counters().Lost; seq < sess.flow.Tr.Counters().Sent; seq++ {
						sh.handle(inMsg{addr: a, kind: KindAck, ack: Ack{AckSeq: seq, NackLayer: NoNack}}, now)
					}
				}
			}
			arrived := int64(0)
			buf := make([]byte, 2048)
			for i, c := range rcv {
				want := sh.sessions[addrs[i+1]].flow.Tr.Counters().Sent
				got := int64(0)
				for got < want {
					c.SetReadDeadline(time.Now().Add(time.Second))
					if _, _, err := c.ReadFromUDPAddrPort(buf); err != nil {
						break
					}
					got++
				}
				if got != want {
					t.Errorf("good session %d: %d of its %d packets arrived", i, got, want)
				}
				arrived += got
			}
			refused := sh.sessions[addrs[0]].flow.Tr.Counters().Sent
			snap := srv.Metrics().Snapshot()
			if st := srv.Stats(); st.SentPkts != arrived {
				t.Errorf("srv.sent = %d, %d arrived", st.SentPkts, arrived)
			}
			if refused == 0 || snap.Counters["srv.senderrs"] != refused {
				t.Errorf("srv.senderrs = %d, the refused session built %d packets", snap.Counters["srv.senderrs"], refused)
			}
		})
	}
}

// TestMultiServerMemoryBoundedUnderLoad streams to a client that acks
// only half the packets (the old seqLayer map leaked every unacked
// entry forever) and pins the steady heap.
func TestMultiServerMemoryBoundedUnderLoad(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unstable under race instrumentation")
	}
	conn := listenUDPTB(t)
	defer conn.Close()
	srv, err := NewMultiServerConns([]*net.UDPConn{conn}, MultiConfig{
		QA:  core.Params{C: 15_000, Kmax: 2, MaxLayers: 2, StartupSec: 0.1},
		RAP: transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 40_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := listenUDPTB(t)
	defer sink.Close()
	sinkAddr := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	sh := srv.shards[0]
	now := 0.0
	sh.handle(inMsg{addr: sinkAddr, kind: KindReq, durMs: 3_600_000}, now)
	sess := sh.sessions[sinkAddr]

	run := func(slices int) {
		for i := 0; i < slices; i++ {
			now += 0.02
			sh.pump(now)
			for seq := sess.flow.Tr.Counters().Acked + sess.flow.Tr.Counters().Lost; seq < sess.flow.Tr.Counters().Sent; seq++ {
				if seq%2 == 0 {
					continue // half the stream is never acknowledged
				}
				sh.handle(inMsg{addr: sinkAddr, kind: KindAck, ack: Ack{AckSeq: seq, NackLayer: NoNack}}, now)
			}
		}
	}
	run(2000) // warm up all pools and rings
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(20_000) // tens of thousands of packets, half never acknowledged
	runtime.GC()
	runtime.ReadMemStats(&after)
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 2<<20 {
		t.Fatalf("heap grew %.1f MB under sustained half-lost load, want bounded", float64(growth)/1e6)
	}
}

// TestMultiServerReuseport serves end to end from two SO_REUSEPORT
// siblings: each shard on its own socket, clients steered by the kernel.
func TestMultiServerReuseport(t *testing.T) {
	if !ReuseportAvailable() {
		t.Skip("SO_REUSEPORT socket groups unsupported on this platform")
	}
	conns, err := ListenReuseport("udp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		defer c.Close()
	}
	srv, err := NewMultiServerConns(conns, MultiConfig{
		QA:  core.Params{C: 15_000, Kmax: 2, MaxLayers: 6, StartupSec: 0.2},
		RAP: transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 30_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.SocketMode(); got != SocketReuseport {
		t.Fatalf("socket mode %q, want %q", got, SocketReuseport)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(ctx)
	}()
	defer func() { cancel(); wg.Wait() }()

	res, err := RunLoad(context.Background(), LoadConfig{
		Addr:     srv.Addr(),
		Clients:  8,
		Dur:      1500 * time.Millisecond,
		Stagger:  300 * time.Millisecond,
		IdleExit: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Starved > 0 {
		t.Fatalf("%d of 8 clients starved under reuseport serving", res.Starved)
	}
	st := srv.Stats()
	if st.Accepted != 8 || st.SentPkts == 0 || st.AckedPkts == 0 {
		t.Fatalf("accepted=%d sent=%d acked=%d", st.Accepted, st.SentPkts, st.AckedPkts)
	}
}

// TestServeReturnsWhenASocketDies: a socket failing under Serve must end
// Serve with that error, not leave it waiting on the shards whose
// sockets are still fine.
func TestServeReturnsWhenASocketDies(t *testing.T) {
	cfg := MultiConfig{
		QA:  core.Params{C: 15_000, Kmax: 2, MaxLayers: 6, StartupSec: 0.2},
		RAP: transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 30_000},
	}
	t.Run("owned", func(t *testing.T) {
		// Two plain sockets on two ports: one shard each, no SO_REUSEPORT
		// needed. The first dies, the second stays healthy.
		conns := []*net.UDPConn{listenUDPTB(t), listenUDPTB(t)}
		defer conns[0].Close()
		defer conns[1].Close()
		srv, err := NewMultiServerConns(conns, cfg)
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(context.Background()) }()
		time.Sleep(200 * time.Millisecond)
		conns[0].Close()
		select {
		case err := <-served:
			if err == nil || errors.Is(err, context.Canceled) {
				t.Fatalf("Serve returned %v, want the socket's read error", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Serve still blocked 2 s after its socket was closed")
		}
	})
}

// TestMultiServerShardsOverridePolicy pins the shard policy: one shard
// per socket, however many sockets (the old silent cap of 8 is gone),
// and more sockets than GOMAXPROCS flagged in stats rather than
// clamped.
func TestMultiServerShardsOverridePolicy(t *testing.T) {
	cfg := MultiConfig{
		QA:  core.Params{C: 15_000, Kmax: 2, MaxLayers: 6, StartupSec: 0.2},
		RAP: transport.RAPConfig{PacketSize: 512, InitialRTT: 0.02, MaxRate: 30_000},
	}
	want := runtime.GOMAXPROCS(0) + 3
	if want < 9 {
		want = 9
	}
	conns := make([]*net.UDPConn, want)
	for i := range conns {
		conns[i] = listenUDPTB(t)
		defer conns[i].Close()
	}
	srv, err := NewMultiServerConns(conns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(srv.shards); got != want {
		t.Fatalf("%d sockets built %d shards", want, got)
	}
	if srv.Stats().ShardsOverCPU == 0 {
		t.Fatalf("%d sockets > GOMAXPROCS=%d not flagged in ShardsOverCPU", want, runtime.GOMAXPROCS(0))
	}
	one, err := NewMultiServerConns(conns[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(one.shards); got != 1 {
		t.Fatalf("one socket built %d shards", got)
	}
	if one.Stats().ShardsOverCPU != 0 {
		t.Fatal("one shard flagged as oversubscribed")
	}
}

func mustUDPAddr(t *testing.T, s string) *net.UDPAddr {
	t.Helper()
	a, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
