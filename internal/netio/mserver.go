package netio

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qav/internal/core"
	"qav/internal/flow"
	"qav/internal/metrics"
	"qav/internal/transport"
)

// SocketMode names a MultiServer's socket layout. There is one layout
// — every shard owns one socket — so the type and its one value exist
// only because bench/ prints them in its server child's ready line;
// they go with the next benchmark-archetype PR.
type SocketMode string

// SocketReuseport is the only layout: one socket per shard (on linux,
// SO_REUSEPORT siblings; see ListenReuseport).
const SocketReuseport SocketMode = "reuseport"

// MultiConfig parameterizes a multi-client streaming server.
type MultiConfig struct {
	// QA configures every stream's quality adaptation controller.
	QA core.Params
	// RAP configures every stream's congestion control. PacketSize is
	// the wire size (header + payload); if zero it defaults to 512.
	RAP transport.RAPConfig
	// MaxClients caps concurrent streams; joins beyond it are refused
	// (default 4096).
	MaxClients int
	// MaxStream bounds how long a single stream may run (default 1 hour).
	MaxStream time.Duration
	// IdleTimeout expires clients whose acknowledgements stop arriving
	// (default 10 s).
	IdleTimeout time.Duration
}

// batchLen is the number of datagrams one batched syscall moves, in
// either direction.
const batchLen = 32

func (c *MultiConfig) normalize() error {
	if c.RAP.PacketSize <= 0 {
		c.RAP.PacketSize = 512
	}
	if c.RAP.PacketSize <= DataHeaderLen {
		return fmt.Errorf("netio: packet size %d <= header %d", c.RAP.PacketSize, DataHeaderLen)
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 4096
	}
	if c.MaxStream <= 0 {
		c.MaxStream = time.Hour
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Second
	}
	return nil
}

// inMsg is one decoded inbound datagram, passed by value from the read
// batch to handle (no per-message allocation).
type inMsg struct {
	addr  netip.AddrPort
	kind  byte
	ack   Ack    // valid when kind == KindAck
	durMs uint32 // valid when kind == KindReq
}

// MultiServer streams layered data to many clients concurrently. Each
// shard owns one socket — on linux, SO_REUSEPORT siblings on one port
// (ListenReuseport), so the kernel steers each client's 4-tuple to a
// consistent shard — and one goroutine that reads it, handles what
// arrived and paces its sessions' data packets out through it, in
// batches. The goroutine exclusively owns the shard's client table:
// there is no mutex anywhere on the packet path, and at steady state
// the send loop performs zero heap allocations per packet (buffers,
// batch scratch, session state, and the pacing wheel's intrusive lists
// are all preallocated). Each shard reads the clock in one method
// (shard.now), once per wake; the per-message paths never syscall for
// time.
type MultiServer struct {
	cfg     MultiConfig
	shards  []*shard
	start   time.Time
	payload []byte // shared zero payload, read-only

	active atomic.Int64 // live sessions across all shards

	reg       *metrics.Registry
	accepted  *metrics.Counter
	rejected  *metrics.Counter
	expired   *metrics.Counter
	badPkt    *metrics.Counter
	unknown   *metrics.Counter
	sent      *metrics.Counter
	sendErrs  *metrics.Counter
	acked     *metrics.Counter
	shardwarn *metrics.Counter
	batchSz   *metrics.Histogram
	sessIns   sessionInstruments
}

// shard owns one socket and a disjoint subset of clients; all its state
// is touched only by the shard's goroutine.
type shard struct {
	srv      *MultiServer
	conn     *net.UDPConn
	sessions map[netip.AddrPort]*session
	writer   BatchConn   // conn, batched: the shard's reads and writes
	msgs     []Message   // preallocated write batch (Buf sized to PacketSize)
	rdBuf    []Message   // preallocated read batch
	wheel    timingWheel // files each session at its next wake instant (wheel.go)
	wake     wakePolicy
	idleSec  float64 // cfg.IdleTimeout in seconds, cached off the hot path

	// free holds nfree expired sessions for the next joins, linked
	// through wnext (they are off the wheel); see removeSession.
	free  *session
	nfree int

	// sessIns is what this shard's sessions record through: the
	// server-wide counters plus the shard's own lateness histogram.
	sessIns sessionInstruments
	// Loop instruments, written by this shard's goroutine alone (atomic
	// only so that a snapshot may run beside it); same-name instruments
	// of all shards sum in the registry.
	wakeups   metrics.Counter    // srv.wakeups: loop iterations, i.e. returns from a read or a sleep
	coalesced metrics.Counter    // srv.coalesced_ticks: iterations taken tick-driven
	rxBatch   *metrics.Histogram // srv.rxbatch: datagrams per socket drain
}

// NewMultiServerConns builds a server with one shard per socket: each
// shard exclusively owns its socket and does its own batched reads and
// writes. The sockets are expected to share a port via SO_REUSEPORT
// (see ListenReuseport) so the kernel steers each client's 4-tuple to a
// consistent shard; any per-socket layout works, though — distinct
// ports with an external balancer is equally valid. Sockets stay
// caller-owned: close them (or cancel Serve's context) to shut down.
// The batch I/O is the platform's best (BatchAuto: mmsg on Linux,
// generic elsewhere).
func NewMultiServerConns(conns []*net.UDPConn, cfg MultiConfig) (*MultiServer, error) {
	return newMultiServerConns(conns, cfg, BatchAuto)
}

// newMultiServerConns is NewMultiServerConns over the batch I/O that
// kind names; tests reach the generic path through it.
func newMultiServerConns(conns []*net.UDPConn, cfg MultiConfig, kind BatchKind) (*MultiServer, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("netio: NewMultiServerConns needs at least one socket")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// Validate QA params once; per-session construction cannot fail after.
	if _, err := core.NewController(cfg.QA); err != nil {
		return nil, err
	}
	// The wire names a layer in one byte, and NoNack takes the last value.
	if cfg.QA.MaxLayers > NoNack {
		return nil, fmt.Errorf("netio: QA.MaxLayers %d exceeds the %d layers the wire can name", cfg.QA.MaxLayers, NoNack)
	}
	reg := metrics.NewRegistry()
	s := &MultiServer{
		cfg:       cfg,
		start:     time.Now(),
		payload:   make([]byte, cfg.RAP.PacketSize-DataHeaderLen),
		reg:       reg,
		accepted:  reg.Counter("srv.accepted"),
		rejected:  reg.Counter("srv.rejected"),
		expired:   reg.Counter("srv.expired"),
		badPkt:    reg.Counter("srv.badpkt"),
		unknown:   reg.Counter("srv.unknownack"),
		sent:      reg.Counter("srv.sent"),
		sendErrs:  reg.Counter("srv.senderrs"),
		acked:     reg.Counter("srv.acked"),
		shardwarn: reg.Counter("srv.shardsovercpu"),
		batchSz:   reg.Histogram("srv.batchsz", metrics.HistogramOpts{MinExp: 0, MaxExp: 8}),
	}
	s.sessIns = newSessionInstruments(reg)
	reg.GaugeFunc("srv.clients", func() float64 { return float64(s.active.Load()) })
	reg.GaugeFunc("srv.shards", func() float64 { return float64(len(s.shards)) })
	if len(conns) > runtime.GOMAXPROCS(0) {
		// Honored, not clamped: the caller asked for it. The counter
		// makes the oversubscription visible in metrics and Stats.
		s.shardwarn.Inc()
	}
	for _, c := range conns {
		bc, err := NewBatchConn(c, kind)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, s.newShard(c, bc))
	}
	// Siblings from ListenReuseport are configured alike: the first
	// socket's grant stands for all.
	rcvbuf := float64(rcvbufBytes(conns[0]))
	reg.GaugeFunc("srv.rcvbuf_bytes", func() float64 { return rcvbuf })
	return s, nil
}

func (s *MultiServer) newShard(conn *net.UDPConn, bc BatchConn) *shard {
	sh := &shard{
		srv:      s,
		conn:     conn,
		sessions: make(map[netip.AddrPort]*session),
		writer:   bc,
		msgs:     make([]Message, batchLen),
		rdBuf:    make([]Message, batchLen),
		idleSec:  s.cfg.IdleTimeout.Seconds(),
		sessIns:  s.sessIns,
	}
	for j := range sh.msgs {
		sh.msgs[j].Buf = make([]byte, s.cfg.RAP.PacketSize)
		sh.rdBuf[j].Buf = make([]byte, 2048) // acks and reqs are tens of bytes
	}
	// 1 µs .. ~1 s: a tick of coalescing sits mid-range, a stalled shard
	// at the top.
	sh.sessIns.Lateness = s.reg.ShardHistogram("srv.pacing.lateness_us", metrics.HistogramOpts{MinExp: 0, MaxExp: 20})
	s.reg.CounterFunc("srv.wakeups", sh.wakeups.Load)
	s.reg.CounterFunc("srv.coalesced_ticks", sh.coalesced.Load)
	sh.rxBatch = s.reg.ShardHistogram("srv.rxbatch", metrics.HistogramOpts{MinExp: 0, MaxExp: 8})
	return sh
}

// Metrics returns the server's aggregate metrics registry. Snapshots
// are safe to take concurrently with serving.
func (s *MultiServer) Metrics() *metrics.Registry { return s.reg }

// WriteMetricsJSON writes the current registry snapshot as indented
// JSON, expvar-style.
func (s *MultiServer) WriteMetricsJSON(w io.Writer) error { return s.reg.WriteJSON(w) }

// Addr returns the server's bound address: the first socket's, which
// reuseport siblings share.
func (s *MultiServer) Addr() string { return s.shards[0].conn.LocalAddr().String() }

// BatchKind reports the I/O implementation actually in use.
func (s *MultiServer) BatchKind() BatchKind { return s.shards[0].writer.Kind() }

// SocketMode reports the socket layout in use, always SocketReuseport.
func (s *MultiServer) SocketMode() SocketMode { return SocketReuseport }

// ActiveClients returns the number of live streams.
func (s *MultiServer) ActiveClients() int { return int(s.active.Load()) }

// MultiStats is a point-in-time aggregate snapshot.
type MultiStats struct {
	ActiveClients int
	Accepted      int64
	Rejected      int64
	Expired       int64
	SentPkts      int64
	AckedPkts     int64
	Delivered     int64
	Retransmits   int64
	NackDrops     int64
	Backoffs      int64 // congestion backoffs across all sessions (srv.qa.backoffs)
	BadPackets    int64
	UnknownAcks   int64
	// ShardsOverCPU is nonzero when there are more sockets, hence shard
	// goroutines, than GOMAXPROCS (the shards merely time-slice).
	ShardsOverCPU int64
}

// Stats returns aggregate counters. Safe concurrently with serving.
func (s *MultiServer) Stats() MultiStats {
	return MultiStats{
		ActiveClients: int(s.active.Load()),
		Accepted:      s.accepted.Load(),
		Rejected:      s.rejected.Load(),
		Expired:       s.expired.Load(),
		SentPkts:      s.sent.Load(),
		AckedPkts:     s.acked.Load(),
		Delivered:     s.sessIns.Delivered.Load(),
		Retransmits:   s.sessIns.Retransmits.Load(),
		NackDrops:     s.sessIns.NackDrops.Load(),
		Backoffs:      s.sessIns.QA.Backoffs.Load(),
		BadPackets:    s.badPkt.Load(),
		UnknownAcks:   s.unknown.Load(),
		ShardsOverCPU: s.shardwarn.Load(),
	}
}

// Serve runs one goroutine per shard until ctx is cancelled or a socket
// fails. The first shard to fail stops the others, and Serve returns
// its error.
func (s *MultiServer) Serve(ctx context.Context) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sh.run(ctx); err != nil {
				cancel(err)
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}

// decodeMsg validates and decodes one inbound datagram. Malformed or
// foreign datagrams are counted and dropped — a garbage packet must
// never panic or desync a stream.
func (s *MultiServer) decodeMsg(msg *Message) (inMsg, bool) {
	b := msg.Buf[:msg.N]
	k, err := Kind(b)
	if err != nil {
		s.badPkt.Inc()
		return inMsg{}, false
	}
	var m inMsg
	m.addr = netip.AddrPortFrom(msg.Addr.Addr().Unmap(), msg.Addr.Port())
	m.kind = k
	switch k {
	case KindAck:
		a, err := DecodeAck(b)
		if err != nil {
			s.badPkt.Inc()
			return inMsg{}, false
		}
		m.ack = a
	case KindReq:
		r, err := DecodeReq(b)
		if err != nil {
			s.badPkt.Inc()
			return inMsg{}, false
		}
		m.durMs = r.DurationMs
	default:
		s.badPkt.Inc()
		return inMsg{}, false
	}
	return m, true
}

// readBurst bounds how many datagrams a shard reads, and how many
// packets it sends, per loop iteration, so an acknowledgement flood from
// one client cannot starve the send path that every other client on the
// shard depends on, nor a send backlog the reads.
const readBurst = 128

// idleSweepSec is the maximum shard sleep, so expiry and new joins are
// noticed promptly even with nothing to send.
const idleSweepSec = 0.05

// now is the shard loop's one clock read: wall seconds since the server
// started. Everything inside an iteration — handle, pump, deadline
// arming — reuses the instant it returned.
func (sh *shard) now() float64 {
	return float64(time.Since(sh.srv.start).Nanoseconds()) / 1e9
}

// run is the shard goroutine. One iteration sends what is due, then
// takes input, in one of two ways chosen by the shard's own event rate
// (wakePolicy, wake.go):
//
// Arrival-driven (light load, and always from idle): block in the
// socket read with the deadline at the earliest next wake, so a REQ or
// an ACK is handled the moment it lands and an idle shard costs one
// wake per idleSweepSec.
//
// Tick-driven (sustained load): sleep to the next wheel tick (tickSleep:
// in the kernel and keeping the shard's P, so the ACKs that land
// meanwhile wake nothing; other goroutines on that P run at its one
// yield per tick), then take what queued meanwhile with non-blocking
// reads. An acknowledgement waits at most a tick in the socket buffer; a
// packet leaves at most a tick after its NextSend and never before it,
// and buildPacket advances the pace from the scheduled instant, so the
// lateness is repaid.
//
// The read deadline armed by the arrival-driven branch is cleared on
// the way into the tick-driven one: the poller fails even a read that
// would not wait once the deadline has passed (see TryReadBatch).
func (sh *shard) run(ctx context.Context) error {
	_, err := sh.writer.TryReadBatch(nil)
	canCoalesce := err == nil // else ErrNoTryRead: this platform waits for every arrival
	armed := false            // a read deadline is set on the socket
	now := sh.now()
	for ctx.Err() == nil {
		sent, next := sh.pumpDue(now)
		prev := now
		var n int
		if canCoalesce && sh.wake.coalesce {
			if armed {
				sh.writer.SetReadDeadline(time.Time{})
				armed = false
			}
			if next > now {
				// Everything due is out: sleep to the tick boundary. With a
				// backlog (pumpDue stopped at its bound) go straight to the
				// socket instead, so input keeps pace with output.
				wake := wheelTickStart(wheelTick(now) + 1)
				tickSleep(time.Duration((wake - sh.now()) * float64(time.Second)))
			}
			now = sh.now()
			if n, err = sh.drainSocket(now); err != nil {
				return err
			}
			sh.coalesced.Inc()
		} else {
			delay := next - now
			if delay < readFloorSec {
				delay = readFloorSec
			}
			if delay > idleSweepSec {
				delay = idleSweepSec
			}
			sh.writer.SetReadDeadline(sh.srv.start.Add(time.Duration((now + delay) * float64(time.Second))))
			armed = true
			n, err = sh.writer.ReadBatch(sh.rdBuf)
			now = sh.now()
			if err != nil {
				if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
					return err
				}
			} else {
				sh.handleRead(n, now)
				sh.rxBatch.Observe(float64(n))
			}
		}
		sh.wakeups.Inc()
		sh.wake.observe(now-prev, sent+n)
	}
	return nil
}

// readFloorSec keeps the arrival-driven read live when the shard is
// backlogged: an already-expired deadline would fail reads without
// draining queued acks, starving the congestion controllers that gate
// the very sends causing the backlog. It is not a pacing quantum — the
// runtime rounds a timer wait up to a millisecond while the thread
// idles in epoll_wait, so a shard with nothing arriving wakes about a
// millisecond later whatever is asked for here.
const readFloorSec = 1e-4

// pumpDue calls pump until nothing more is due at now: one pump writes
// at most one batch (batchLen packets), and a wheel tick under load
// makes several batches due at once. It stops after readBurst packets
// all the same — leaving next <= now — so that a deep backlog alternates
// with reads the way a flood of reads alternates with sends, and after
// a pump that wrote nothing (a session whose idle cutoff rounds to
// exactly now is awake but not yet expired: only the clock moves it).
func (sh *shard) pumpDue(now float64) (sent int, next float64) {
	for {
		k, nx := sh.pump(now)
		sent, next = sent+k, nx
		if k == 0 || next > now || sent >= readBurst {
			return sent, next
		}
	}
}

// drainSocket (tick-driven branch) reads what is queued on the shard's
// socket without waiting, up to readBurst datagrams, and handles it.
func (sh *shard) drainSocket(now float64) (int, error) {
	total := 0
	for total < readBurst {
		n, err := sh.writer.TryReadBatch(sh.rdBuf)
		if err != nil {
			return total, err
		}
		sh.handleRead(n, now)
		total += n
		if n < len(sh.rdBuf) {
			break // short read: the socket is empty
		}
	}
	sh.rxBatch.Observe(float64(total))
	return total, nil
}

// handleRead decodes and applies the first n datagrams of the read
// batch.
func (sh *shard) handleRead(n int, now float64) {
	for i := 0; i < n; i++ {
		if m, ok := sh.srv.decodeMsg(&sh.rdBuf[i]); ok {
			sh.handle(m, now)
		}
	}
}

// handle applies one decoded datagram to the shard's table.
func (sh *shard) handle(m inMsg, now float64) {
	switch m.kind {
	case KindReq:
		st := sh.sessions[m.addr]
		if st == nil {
			srv := sh.srv
			// Take the slot before building the session: shards admit
			// concurrently, and a check followed by a later increment lets
			// two of them both see the last free slot.
			if int(srv.active.Add(1)) > srv.cfg.MaxClients {
				srv.active.Add(-1)
				srv.rejected.Inc()
				return
			}
			if st = sh.join(m.addr, now); st == nil {
				srv.active.Add(-1)
				return // unreachable: params validated at construction
			}
			sh.sessions[m.addr] = st
			srv.accepted.Inc()
		}
		dur := float64(m.durMs) / 1e3
		if max := sh.srv.cfg.MaxStream.Seconds(); dur > max {
			dur = max
		}
		st.deadline = now + dur
		st.lastRecv = now
		// File after deadline/lastRecv are final: the wheel files the
		// session by its wake instant, which reads both. A re-request
		// may pull the deadline earlier, so it re-files.
		sh.wheel.unlink(st)
		sh.wheel.place(st, sh.wakeAt(st))
	case KindAck:
		st := sh.sessions[m.addr]
		if st == nil {
			sh.srv.unknown.Inc()
			return
		}
		st.onAck(now, m.ack, &sh.sessIns)
		sh.srv.acked.Inc()
		// No re-filing: acks only move wake instants later (idle
		// expiry pushes out; NextSend is untouched), and the wheel
		// re-files lazily at fire time.
	}
}

// pump advances the wheel to now's tick and services only the sessions
// that fired: expires the dead ones, gathers due packets into the write
// batch, re-files each session at its next wake instant, and sends the
// batch in one batched write. Returns packets written and the earliest
// next wake instant (+Inf when nothing is scheduled within the wheel's
// lookahead). Zero heap allocations at steady state.
func (sh *shard) pump(now float64) (sent int, next float64) {
	w := &sh.wheel
	w.advance(wheelTick(now))
	next = math.Inf(1)
	k := 0
	for st := w.imminent; st != nil; {
		nxt := st.wnext
		if sh.expired(st, now) {
			sh.removeSession(st)
			st = nxt
			continue
		}
		if st.flow.NextSend <= now && k < len(sh.msgs) {
			k = sh.buildDue(st, now, k)
		}
		// Re-file at the (possibly moved) wake instant. Wakes still in
		// the current tick — sub-tick pacing, a backlog deeper than
		// one burst, or a batch-budget leftover — stay imminent and
		// drive `next` with the exact float64 instant.
		wake := sh.wakeAt(st)
		if t := wheelTick(wake); t > w.cur {
			w.unlink(st)
			w.schedule(st, t)
		} else if wake < next {
			next = wake
		}
		st = nxt
	}
	sh.flush(k)
	if wn := w.nextWake(); wn < next {
		next = wn
	}
	return k, next
}

// expired reports whether st is past its stream deadline or idle cutoff.
func (sh *shard) expired(st *session, now float64) bool {
	return now >= st.deadline || now-st.lastRecv > sh.idleSec
}

// wakeAt is the earliest instant st next needs service: its paced send
// or whichever expiry comes first.
func (sh *shard) wakeAt(st *session) float64 {
	w := st.flow.NextSend
	if st.deadline < w {
		w = st.deadline
	}
	if e := st.lastRecv + sh.idleSec; e < w {
		w = e
	}
	return w
}

// buildDue appends st's due packets (up to flow.SendBurst, the most
// pacing debt the driver lets a session carry; bounded by the batch
// budget) to the write batch starting at index k, returning the new
// fill level. buildPacket advances the driver's NextSend each call, so
// the loop exits as soon as the session is caught up.
func (sh *shard) buildDue(st *session, now float64, k int) int {
	for b := 0; b < flow.SendBurst && st.flow.NextSend <= now && k < len(sh.msgs); b++ {
		if n := st.buildPacket(now, sh.msgs[k].Buf, sh.srv.payload, &sh.sessIns); n > 0 {
			sh.msgs[k].N = n
			sh.msgs[k].Addr = st.addr
			k++
		}
	}
	return k
}

// flush writes the first k batch entries in one batched write and
// counts what went (srv.sent) and what the kernel refused
// (srv.senderrs). A refusal is not fatal: the batch layer skips the
// refused datagram and sends the rest, and RAP takes the missing packet
// for a loss of that session alone.
func (sh *shard) flush(k int) {
	if k > 0 {
		n, _ := sh.writer.WriteBatch(sh.msgs[:k]) // the count is the outcome: the error only names the first refusal
		sh.srv.sent.Add(int64(n))
		if n < k {
			sh.srv.sendErrs.Add(int64(k - n))
		}
		sh.srv.batchSz.Observe(float64(k))
	}
}

// join returns the session for a stream to addr that joins at now: an
// expired one off the free list, restarted, or else a new one (nil only
// if the QA params are invalid, which construction rules out).
func (sh *shard) join(addr netip.AddrPort, now float64) *session {
	if st := sh.free; st != nil {
		sh.free, sh.nfree = st.wnext, sh.nfree-1
		st.restart(addr, now)
		return st
	}
	cfg := &sh.srv.cfg
	st, _ := newSession(addr, cfg.QA, cfg.RAP, sh.sessIns.QA, now) // on error st is nil, and handle refuses the join
	return st
}

// removeSession drops an expired session from the wheel and the table,
// and keeps it on the free list for a later join while the list is
// shorter than the shard's live session count. A session is allocated
// only when the list is empty, so the live and free sessions together
// never outnumber the shard's peak live count, and the list holds at
// most half of it: what a flash crowd leaves behind once it has gone.
func (sh *shard) removeSession(st *session) {
	sh.wheel.unlink(st)
	delete(sh.sessions, st.addr)
	sh.srv.active.Add(-1)
	sh.srv.expired.Inc()
	if sh.nfree < len(sh.sessions) {
		st.wnext, sh.free = sh.free, st
		sh.nfree++
	}
}
