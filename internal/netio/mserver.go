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

// SocketMode names the two socket layouts a MultiServer can run in.
// The mode is chosen by constructor — NewMultiServer (demux) vs
// NewMultiServerConns (reuseport/owned) — these constants exist so
// command-line tools can expose the choice as a flag.
type SocketMode string

const (
	// SocketDemux: one shared socket, one reader goroutine
	// demultiplexing to per-shard inboxes by FNV address hash. Portable
	// (works on every platform) and the non-linux default.
	SocketDemux SocketMode = "demux"
	// SocketReuseport: one SO_REUSEPORT socket per shard, each shard
	// goroutine doing its own batched reads and writes. The kernel
	// steers each client 4-tuple to a consistent socket, so the
	// reader->inbox hop (and its sheds) disappears. Linux only; see
	// ListenReuseport.
	SocketReuseport SocketMode = "reuseport"
)

// MultiConfig parameterizes a multi-client streaming server.
type MultiConfig struct {
	// QA configures every stream's quality adaptation controller.
	QA core.Params
	// RAP configures every stream's congestion control. PacketSize is
	// the wire size (header + payload); if zero it defaults to 512.
	RAP transport.RAPConfig
	// Shards is the number of independent client-table shards, each
	// owned by one goroutine. When unset it defaults to
	// DefaultShards(): GOMAXPROCS capped at 8, because in demux mode
	// the single reader goroutine becomes the bottleneck well before
	// eight shards are saturated and further shards only add wakeups.
	// An explicit value is honored as given — including values above 8
	// (useful in reuseport mode, where every shard owns a socket and
	// there is no shared reader); a value above GOMAXPROCS is accepted
	// but flagged in Stats().ShardsOverCPU rather than silently
	// clamped, since shards beyond the core count just time-slice.
	// Ignored by NewMultiServerConns, which runs one shard per socket.
	Shards int
	// Batch is the number of datagrams moved per batched syscall
	// (default 32, capped at the platform batch capacity).
	Batch int
	// BatchKind selects the I/O implementation (default BatchAuto:
	// mmsg on Linux, generic elsewhere).
	BatchKind BatchKind
	// MaxClients caps concurrent streams; joins beyond it are refused
	// (default 4096).
	MaxClients int
	// MaxStream bounds how long a single stream may run (default 1 hour).
	MaxStream time.Duration
	// IdleTimeout expires clients whose acknowledgements stop arriving
	// (default 10 s).
	IdleTimeout time.Duration
}

// DefaultShards is the shard count used when MultiConfig.Shards is
// unset: GOMAXPROCS, capped at 8 (see the Shards field doc for why).
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

func (c *MultiConfig) normalize() error {
	if c.RAP.PacketSize <= 0 {
		c.RAP.PacketSize = 512
	}
	if c.RAP.PacketSize <= DataHeaderLen {
		return fmt.Errorf("netio: packet size %d <= header %d", c.RAP.PacketSize, DataHeaderLen)
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards()
	}
	if c.Batch <= 0 {
		c.Batch = 32
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

// inMsg is one demultiplexed inbound datagram, passed by value through
// a shard's inbox channel (no per-message allocation).
type inMsg struct {
	addr  netip.AddrPort
	kind  byte
	ack   Ack    // valid when kind == KindAck
	durMs uint32 // valid when kind == KindReq
}

// MultiServer streams layered data to many clients concurrently. Two
// socket layouts exist:
//
// Demux (NewMultiServer): one UDP socket; a reader goroutine drains it
// in batches and demultiplexes requests/acknowledgements to per-shard
// inboxes by client address hash.
//
// Owned (NewMultiServerConns): one socket per shard — on linux,
// SO_REUSEPORT siblings on one port (ListenReuseport) — and each shard
// goroutine does its own batched reads, deleting the reader->inbox
// hop and its sheds.
//
// In both modes each shard goroutine exclusively owns its client table
// and paces its sessions' data packets out through its own batched
// writer — there is no mutex anywhere on the packet path, and at
// steady state the send loop performs zero heap allocations per packet
// (buffers, batch scratch, session state, and the pacing wheel's
// intrusive lists are all preallocated; inboxes carry values). Time is
// sampled once per shard loop iteration into a coarse shared clock
// (coarseNs); the per-message paths never syscall for time.
type MultiServer struct {
	cfg     MultiConfig
	conn    *net.UDPConn // demux mode; nil when shards own their sockets
	reader  BatchConn    // demux mode
	owned   bool         // shards own their sockets (reuseport mode)
	shards  []*shard
	start   time.Time
	payload []byte // shared zero payload, read-only

	// coarseNs is the coarse clock: monotonic nanoseconds since start,
	// published by publishNow once per shard/reader loop iteration and
	// read lock-free everywhere a "recent enough" timestamp suffices
	// (read-deadline arming, inbox-wakeup handling). Staleness is
	// bounded by the shortest loop period (at most idleSweepSec).
	coarseNs atomic.Int64

	active atomic.Int64 // live sessions across all shards

	reg       *metrics.Registry
	accepted  *metrics.Counter
	rejected  *metrics.Counter
	expired   *metrics.Counter
	badPkt    *metrics.Counter
	inboxDrop *metrics.Counter
	unknown   *metrics.Counter
	sent      *metrics.Counter
	acked     *metrics.Counter
	shardwarn *metrics.Counter
	batchSz   *metrics.Histogram
	sessIns   sessionInstruments
}

// shard owns a disjoint subset of clients. All shard state except the
// sheds counter is touched only by the shard's goroutine.
type shard struct {
	srv      *MultiServer
	inbox    chan inMsg // demux mode; nil when the shard owns a socket
	sessions map[netip.AddrPort]*session
	writer   BatchConn
	msgs     []Message    // preallocated write batch (Buf sized to PacketSize)
	wheel    timingWheel  // files each session at its next wake instant (wheel.go)
	idleSec  float64      // cfg.IdleTimeout in seconds, cached off the hot path
	sheds    atomic.Int64 // inbox messages shed for this shard (demux mode; written by the reader)

	// sessIns is what this shard's sessions record through: the
	// server-wide counters plus the shard's own lateness histogram.
	sessIns sessionInstruments

	// Owned-socket (reuseport) mode only:
	conn  *net.UDPConn
	rdBuf []Message // preallocated read batch
	wake  wakePolicy
	// Loop instruments, written by this shard's goroutine alone (atomic
	// only so that a snapshot may run beside it); same-name instruments
	// of all shards sum in the registry.
	wakeups   metrics.Counter    // srv.wakeups: loop iterations, i.e. returns from a read or a sleep
	coalesced metrics.Counter    // srv.coalesced_ticks: iterations taken tick-driven
	rxBatch   *metrics.Histogram // srv.rxbatch: datagrams per socket drain
}

// newMulti validates the config and builds the shared (mode-agnostic)
// server core; the constructors attach sockets and shards.
func newMulti(cfg MultiConfig) (*MultiServer, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// Validate QA params once; per-session construction cannot fail after.
	if _, err := core.NewController(cfg.QA); err != nil {
		return nil, err
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
		inboxDrop: reg.Counter("srv.inboxdrop"),
		unknown:   reg.Counter("srv.unknownack"),
		sent:      reg.Counter("srv.sent"),
		acked:     reg.Counter("srv.acked"),
		shardwarn: reg.Counter("srv.shardsovercpu"),
		batchSz:   reg.Histogram("srv.batchsz", metrics.HistogramOpts{MinExp: 0, MaxExp: 8}),
	}
	s.sessIns = sessionInstruments{
		Retransmits: reg.Counter("srv.retransmits"),
		NackDrops:   reg.Counter("srv.nackdrops"),
		Delivered:   reg.Counter("srv.delivered"),
		Backoffs:    reg.Counter("srv.backoffs"),
	}
	reg.GaugeFunc("srv.clients", func() float64 { return float64(s.active.Load()) })
	reg.GaugeFunc("srv.shards", func() float64 { return float64(len(s.shards)) })
	if cfg.Shards > runtime.GOMAXPROCS(0) {
		// Honored, not clamped: the caller asked for it. The counter
		// makes the oversubscription visible in metrics and Stats.
		s.shardwarn.Inc()
	}
	return s, nil
}

func (s *MultiServer) addShard(writer BatchConn) *shard {
	sh := &shard{
		srv:      s,
		sessions: make(map[netip.AddrPort]*session),
		writer:   writer,
		msgs:     make([]Message, s.cfg.Batch),
		idleSec:  s.cfg.IdleTimeout.Seconds(),
		sessIns:  s.sessIns,
	}
	// 1 µs .. ~1 s: a tick of coalescing sits mid-range, a stalled shard
	// at the top.
	sh.sessIns.Lateness = s.reg.ShardHistogram("srv.pacing.lateness_us", metrics.HistogramOpts{MinExp: 0, MaxExp: 20})
	for j := range sh.msgs {
		sh.msgs[j].Buf = make([]byte, s.cfg.RAP.PacketSize)
	}
	s.shards = append(s.shards, sh)
	return sh
}

// NewMultiServer wraps an already-bound UDP socket in a sharded
// multi-client server (demux mode). The socket stays caller-owned:
// close it (or cancel Serve's context) to shut down.
func NewMultiServer(conn *net.UDPConn, cfg MultiConfig) (*MultiServer, error) {
	s, err := newMulti(cfg)
	if err != nil {
		return nil, err
	}
	s.conn = conn
	if s.reader, err = NewBatchConn(conn, s.cfg.BatchKind); err != nil {
		return nil, err
	}
	for i := 0; i < s.cfg.Shards; i++ {
		writer, err := NewBatchConn(conn, s.cfg.BatchKind)
		if err != nil {
			return nil, err
		}
		sh := s.addShard(writer)
		sh.inbox = make(chan inMsg, 4*s.cfg.Batch)
	}
	return s, nil
}

// NewMultiServerConns builds a server where each shard exclusively owns
// one of the given sockets (owned/reuseport mode): no reader goroutine,
// no inbox channels, no sheds — each shard does its own batched reads
// between pump wakeups. The sockets are expected to share a port via
// SO_REUSEPORT (see ListenReuseport) so the kernel steers each client's
// 4-tuple to a consistent shard; any per-socket layout works, though —
// distinct ports with an external balancer is equally valid. cfg.Shards
// is ignored: there is one shard per socket. Sockets stay caller-owned.
func NewMultiServerConns(conns []*net.UDPConn, cfg MultiConfig) (*MultiServer, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("netio: NewMultiServerConns needs at least one socket")
	}
	cfg.Shards = len(conns)
	s, err := newMulti(cfg)
	if err != nil {
		return nil, err
	}
	s.owned = true
	for _, c := range conns {
		bc, err := NewBatchConn(c, s.cfg.BatchKind)
		if err != nil {
			return nil, err
		}
		sh := s.addShard(bc)
		sh.conn = c
		sh.rdBuf = make([]Message, s.cfg.Batch)
		for j := range sh.rdBuf {
			sh.rdBuf[j].Buf = make([]byte, 2048) // acks and reqs are tens of bytes
		}
		s.reg.CounterFunc("srv.wakeups", sh.wakeups.Load)
		s.reg.CounterFunc("srv.coalesced_ticks", sh.coalesced.Load)
		sh.rxBatch = s.reg.ShardHistogram("srv.rxbatch", metrics.HistogramOpts{MinExp: 0, MaxExp: 8})
	}
	// Siblings from ListenReuseport are configured alike: the first
	// socket's grant stands for all.
	rcvbuf := float64(rcvbufBytes(conns[0]))
	s.reg.GaugeFunc("srv.rcvbuf_bytes", func() float64 { return rcvbuf })
	return s, nil
}

// Metrics returns the server's aggregate metrics registry. Snapshots
// are safe to take concurrently with serving.
func (s *MultiServer) Metrics() *metrics.Registry { return s.reg }

// WriteMetricsJSON writes the current registry snapshot as indented
// JSON, expvar-style.
func (s *MultiServer) WriteMetricsJSON(w io.Writer) error { return s.reg.WriteJSON(w) }

// Addr returns the server's bound address (the first socket's, in
// owned mode — reuseport siblings share it).
func (s *MultiServer) Addr() string {
	if s.owned {
		return s.shards[0].conn.LocalAddr().String()
	}
	return s.conn.LocalAddr().String()
}

// BatchKind reports the I/O implementation actually in use.
func (s *MultiServer) BatchKind() BatchKind {
	if s.owned {
		return s.shards[0].writer.Kind()
	}
	return s.reader.Kind()
}

// SocketMode reports the socket layout in use.
func (s *MultiServer) SocketMode() SocketMode {
	if s.owned {
		return SocketReuseport
	}
	return SocketDemux
}

// ActiveClients returns the number of live streams.
func (s *MultiServer) ActiveClients() int { return int(s.active.Load()) }

// publishNow samples the monotonic clock once and publishes it to the
// coarse clock. Shard and reader loops call it once per iteration;
// everything inside an iteration (handle/drain/pump, deadline arming)
// reuses the published instant instead of syscalling.
func (s *MultiServer) publishNow() float64 {
	ns := time.Since(s.start).Nanoseconds()
	s.coarseNs.Store(ns)
	return float64(ns) / 1e9
}

// coarseDeadline turns a duration-from-now into an absolute deadline
// off the coarse clock — no time syscall. The result lags a fresh
// time.Now() by at most the publisher loop period, which callers
// absorb by construction (deadlines here are polling intervals, not
// precision timers).
func (s *MultiServer) coarseDeadline(d time.Duration) time.Time {
	return s.start.Add(time.Duration(s.coarseNs.Load()) + d)
}

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
	Backoffs      int64 // RAP backoffs across all sessions
	BadPackets    int64
	InboxDrops    int64
	// InboxDropsPerShard breaks InboxDrops down by destination shard
	// (all zeros in owned/reuseport mode, which has no inboxes). A
	// single hot entry means one shard's clients are flooding; uniform
	// drops mean the shards themselves can't keep up.
	InboxDropsPerShard []int64
	UnknownAcks        int64
	// ShardsOverCPU is nonzero when the configured shard count exceeds
	// GOMAXPROCS (the shards merely time-slice; see MultiConfig.Shards).
	ShardsOverCPU int64
}

// Stats returns aggregate counters. Safe concurrently with serving.
func (s *MultiServer) Stats() MultiStats {
	perShard := make([]int64, len(s.shards))
	for i, sh := range s.shards {
		perShard[i] = sh.sheds.Load()
	}
	return MultiStats{
		ActiveClients:      int(s.active.Load()),
		Accepted:           s.accepted.Load(),
		Rejected:           s.rejected.Load(),
		Expired:            s.expired.Load(),
		SentPkts:           s.sent.Load(),
		AckedPkts:          s.acked.Load(),
		Delivered:          s.sessIns.Delivered.Load(),
		Retransmits:        s.sessIns.Retransmits.Load(),
		NackDrops:          s.sessIns.NackDrops.Load(),
		Backoffs:           s.sessIns.Backoffs.Load(),
		BadPackets:         s.badPkt.Load(),
		InboxDrops:         s.inboxDrop.Load(),
		InboxDropsPerShard: perShard,
		UnknownAcks:        s.unknown.Load(),
		ShardsOverCPU:      s.shardwarn.Load(),
	}
}

// Serve runs the shard goroutines (plus, in demux mode, the reader)
// until ctx is cancelled or a socket fails. The first loop to fail stops
// the others, and Serve returns its error.
func (s *MultiServer) Serve(ctx context.Context) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	loop := func(run func(context.Context) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(ctx); err != nil {
				cancel(err)
			}
		}()
	}
	for _, sh := range s.shards {
		if s.owned {
			loop(sh.runOwned)
		} else {
			loop(func(ctx context.Context) error { sh.run(ctx); return nil })
		}
	}
	if !s.owned {
		loop(s.readLoop)
	}
	wg.Wait()
	return context.Cause(ctx)
}

// shardOf hashes a client address to its owning shard (FNV-1a over the
// 16-byte address and port; allocation-free). Demux mode only — in
// owned mode the kernel's reuseport steering decides, and the two
// need not agree (see DESIGN.md).
func (s *MultiServer) shardOf(addr netip.AddrPort) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	a16 := addr.Addr().As16()
	for _, b := range a16 {
		h = (h ^ uint64(b)) * prime64
	}
	p := addr.Port()
	h = (h ^ uint64(p&0xff)) * prime64
	h = (h ^ uint64(p>>8)) * prime64
	return s.shards[h%uint64(len(s.shards))]
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

// readLoop (demux mode) drains the socket in batches and demultiplexes
// to shard inboxes. A full inbox sheds the message rather than
// blocking the reader, so one client's flood cannot stall ingestion
// for other shards; sheds are counted per destination shard.
func (s *MultiServer) readLoop(ctx context.Context) error {
	ms := make([]Message, s.cfg.Batch)
	for i := range ms {
		ms[i].Buf = make([]byte, 2048) // acks and reqs are tens of bytes
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		s.reader.SetReadDeadline(s.coarseDeadline(100 * time.Millisecond))
		n, err := s.reader.ReadBatch(ms)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// Republish so the next deadline is armed off a fresh
				// base even when every shard is asleep — a stale base
				// would make successive deadlines land in the past and
				// spin this loop.
				s.publishNow()
				continue
			}
			return err
		}
		for i := 0; i < n; i++ {
			m, ok := s.decodeMsg(&ms[i])
			if !ok {
				continue
			}
			sh := s.shardOf(m.addr)
			select {
			case sh.inbox <- m:
			default:
				s.inboxDrop.Inc()
				sh.sheds.Add(1)
			}
		}
	}
}

// inboxBurst bounds how many inbox messages a shard consumes per loop
// iteration, so an acknowledgement flood from one client cannot starve
// the send path that every other client on the shard depends on.
const inboxBurst = 128

// idleSweepSec is the maximum shard sleep, so expiry and new joins are
// noticed promptly even with nothing to send.
const idleSweepSec = 0.05

// run is the demux-mode shard goroutine: drain a bounded burst of
// inbox messages, pace out due packets in one batched write, then
// sleep until the earliest next wake (or the next inbox arrival). The
// clock is sampled once per iteration (publishNow); drain and pump
// share that instant.
func (sh *shard) run(ctx context.Context) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		now := sh.srv.publishNow()
		sh.drain(now)
		_, next := sh.pump(now)
		delay := next - sh.srv.publishNow()
		if delay <= 0 {
			continue // more packets already due
		}
		if delay > idleSweepSec {
			delay = idleSweepSec
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Duration(delay * float64(time.Second)))
		select {
		case <-ctx.Done():
			return
		case m := <-sh.inbox:
			sh.handle(m, sh.srv.publishNow())
		case <-timer.C:
		}
	}
}

// runOwned is the owned-socket shard goroutine. One iteration sends
// what is due, then takes input, in one of two ways chosen by the
// shard's own event rate (wakePolicy, wake.go):
//
// Arrival-driven (light load, and always from idle): block in the
// socket read with the deadline at the earliest next wake, so a REQ or
// an ACK is handled the moment it lands and an idle shard costs one
// wake per idleSweepSec.
//
// Tick-driven (sustained load): sleep to the next wheel tick, then take
// what queued meanwhile with non-blocking reads. An acknowledgement
// waits at most a tick in the socket buffer; a packet leaves at most a
// tick after its NextSend and never before it, and buildPacket advances
// the pace from the scheduled instant, so the lateness is repaid.
//
// The read deadline armed by the arrival-driven branch is cleared on
// the way into the tick-driven one: the poller fails even a read that
// would not wait once the deadline has passed (see TryReadBatch).
func (sh *shard) runOwned(ctx context.Context) error {
	_, err := sh.writer.TryReadBatch(nil)
	canCoalesce := err == nil // else ErrNoTryRead: this platform waits for every arrival
	srv := sh.srv
	armed := false // a read deadline is set on the socket
	now := srv.publishNow()
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
				time.Sleep(time.Duration((wake - srv.publishNow()) * float64(time.Second)))
			}
			now = srv.publishNow()
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
			sh.writer.SetReadDeadline(srv.coarseDeadline(time.Duration(delay * float64(time.Second))))
			armed = true
			n, err = sh.writer.ReadBatch(sh.rdBuf)
			now = srv.publishNow()
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
// at most one batch (cfg.Batch packets), and a wheel tick under load
// makes several batches due at once. It stops after inboxBurst packets
// all the same — leaving next <= now — so that a deep backlog alternates
// with reads the way a flood of reads alternates with sends, and after
// a pump that wrote nothing (a session whose idle cutoff rounds to
// exactly now is awake but not yet expired: only the clock moves it).
func (sh *shard) pumpDue(now float64) (sent int, next float64) {
	for {
		k, nx := sh.pump(now)
		sent, next = sent+k, nx
		if k == 0 || next > now || sent >= inboxBurst {
			return sent, next
		}
	}
}

// drainSocket (tick-driven branch) reads what is queued on the shard's
// socket without waiting, up to inboxBurst datagrams, and handles it.
func (sh *shard) drainSocket(now float64) (int, error) {
	total := 0
	for total < inboxBurst {
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

// drain consumes up to inboxBurst queued messages without blocking.
func (sh *shard) drain(now float64) {
	for i := 0; i < inboxBurst; i++ {
		select {
		case m := <-sh.inbox:
			sh.handle(m, now)
		default:
			return
		}
	}
}

// handle applies one demultiplexed datagram to the shard's table.
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
			var err error
			st, err = newSession(m.addr, srv.cfg.QA, srv.cfg.RAP, srv.payload, now)
			if err != nil {
				srv.active.Add(-1)
				return // unreachable: params validated at construction
			}
			st.ins = &sh.sessIns
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
		st.onAck(now, m.ack)
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
		if n := st.buildPacket(now, sh.msgs[k].Buf); n > 0 {
			sh.msgs[k].N = n
			sh.msgs[k].Addr = st.addr
			k++
		}
	}
	return k
}

// flush writes the first k batch entries in one batched syscall.
func (sh *shard) flush(k int) {
	if k > 0 {
		sh.writer.WriteBatch(sh.msgs[:k]) // per-datagram kernel errors are not fatal
		sh.srv.sent.Add(int64(k))
		sh.srv.batchSz.Observe(float64(k))
	}
}

// removeSession drops an expired session from the wheel and the table.
func (sh *shard) removeSession(st *session) {
	sh.wheel.unlink(st)
	delete(sh.sessions, st.addr)
	sh.srv.active.Add(-1)
	sh.srv.expired.Inc()
}
