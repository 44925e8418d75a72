package netio

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// LoadConfig drives a fleet of emulated clients against a server.
type LoadConfig struct {
	// Addr is the server (or pipe) address to dial.
	Addr string
	// Clients is the number of concurrent emulated clients.
	Clients int
	// Dur is how long each client requests to be streamed to.
	Dur time.Duration
	// Stagger spreads client joins over a bounded window (default 1 s)
	// using the fleet stagger arithmetic from the simulator: client i
	// joins at (i*97 ms) mod window, exact integer milliseconds, so
	// joins neither phase-lock nor thundering-herd.
	Stagger time.Duration
	// IdleExit is how long a client waits with no data before treating
	// the stream as over (default 2 s).
	IdleExit time.Duration
}

// loadReadBuf sizes each emulated client's receive buffer, bytes.
const loadReadBuf = 2048

// ClientLoad is one emulated client's receive summary.
type ClientLoad struct {
	Packets      int64
	Bytes        int64
	HighestLayer int
	Goodput      float64 // bytes/s over the client's active window
	Err          string  // empty on success
}

// LoadResult aggregates a load run.
type LoadResult struct {
	PerClient []ClientLoad
	// GoodputTotal sums per-client goodput, bytes/s.
	GoodputTotal float64
	// Jain is Jain's fairness index over per-client goodput: 1.0 is
	// perfectly fair, 1/n is maximally unfair.
	Jain       float64
	MinGoodput float64
	MaxGoodput float64
	// Starved counts clients that received nothing.
	Starved int
	// PktsTotal counts data packets received across all clients.
	PktsTotal int64
	// Elapsed is the wall time of the whole run, joins included.
	Elapsed time.Duration
}

// RunLoad launches cfg.Clients emulated clients with staggered joins
// and blocks until all streams end. Each client is a lightweight
// request/read/ack loop (no playout model, no NACKs) with an
// allocation-free receive path, so thousands run comfortably on one
// host — the knob that matters is the server under test.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadResult, error) {
	if cfg.Clients <= 0 {
		return LoadResult{}, fmt.Errorf("netio: load needs at least one client")
	}
	if cfg.Stagger <= 0 {
		cfg.Stagger = time.Second
	}
	if cfg.IdleExit <= 0 {
		cfg.IdleExit = 2 * time.Second
	}
	startAll := time.Now()
	res := LoadResult{PerClient: make([]ClientLoad, cfg.Clients)}
	var wg sync.WaitGroup
	windowMs := int(cfg.Stagger / time.Millisecond)
	if windowMs <= 0 {
		windowMs = 1
	}
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The simulator's bounded integer stagger (PR 5/6): exact
			// periodic coverage of the window, no float drift.
			delay := time.Duration((i*97)%windowMs) * time.Millisecond
			select {
			case <-ctx.Done():
				res.PerClient[i].Err = ctx.Err().Error()
				return
			case <-time.After(delay):
			}
			if err := runLoadClient(ctx, cfg, &res.PerClient[i]); err != nil {
				res.PerClient[i].Err = err.Error()
			}
		}(i)
	}
	wg.Wait()
	res.Elapsed = time.Since(startAll)
	res.MinGoodput = 0
	var sum, sumSq float64
	first := true
	for i := range res.PerClient {
		c := &res.PerClient[i]
		res.PktsTotal += c.Packets
		if c.Packets == 0 {
			res.Starved++
		}
		res.GoodputTotal += c.Goodput
		sum += c.Goodput
		sumSq += c.Goodput * c.Goodput
		if first || c.Goodput < res.MinGoodput {
			res.MinGoodput = c.Goodput
		}
		if c.Goodput > res.MaxGoodput {
			res.MaxGoodput = c.Goodput
		}
		first = false
	}
	if sumSq > 0 {
		n := float64(len(res.PerClient))
		res.Jain = sum * sum / (n * sumSq)
	}
	return res, nil
}

// runLoadClient is one emulated client: request the stream, then read
// data and acknowledge every packet until the stream goes idle. The
// loop allocates nothing per packet.
func runLoadClient(ctx context.Context, cfg LoadConfig, out *ClientLoad) error {
	raddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return err
	}
	defer conn.Close()

	req := make([]byte, ReqLen)
	n, err := EncodeReq(req, Req{DurationMs: uint32(cfg.Dur / time.Millisecond)})
	if err != nil {
		return err
	}
	if _, err := conn.Write(req[:n]); err != nil {
		return err
	}

	buf := make([]byte, loadReadBuf)
	ackBuf := make([]byte, AckLen)
	start := time.Now()
	deadline := start.Add(cfg.Dur + cfg.IdleExit + 3*time.Second)
	lastData := start
	var firstData, lastArrival time.Time
	rereqAt := start.Add(500 * time.Millisecond) // join may have been shed under load; re-request
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		if out.Packets > 0 && time.Since(lastData) > cfg.IdleExit {
			break // stream over
		}
		if out.Packets == 0 && time.Now().After(rereqAt) {
			conn.Write(req[:n])
			rereqAt = time.Now().Add(500 * time.Millisecond)
		}
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		nr, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		h, payload, err := DecodeData(buf[:nr])
		if err != nil {
			continue
		}
		if out.Packets == 0 {
			firstData = time.Now()
		}
		lastData = time.Now()
		lastArrival = lastData
		out.Packets++
		out.Bytes += int64(len(payload) + DataHeaderLen)
		if int(h.Layer) > out.HighestLayer {
			out.HighestLayer = int(h.Layer)
		}
		na, err := EncodeAck(ackBuf, Ack{AckSeq: h.Seq, EchoMicros: h.SendMicros, NackLayer: NoNack})
		if err != nil {
			return err
		}
		if _, err := conn.Write(ackBuf[:na]); err != nil {
			return err
		}
	}
	if out.Packets > 0 {
		window := lastArrival.Sub(firstData).Seconds()
		if window > 0 {
			out.Goodput = float64(out.Bytes) / window
		}
	}
	return nil
}
