package netio

import (
	"context"
	"fmt"
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

// loadReadBuf is each emulated client's initial receive buffer, bytes;
// the first larger packet grows it to that packet's length.
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
// and blocks until all streams end. Each client is one playout-free
// viewer (no NACKs) behind the receive loop Client.Stream uses, whose
// per-packet path allocates nothing, so thousands run comfortably on
// one host — the knob that matters is the server under test.
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
	windowMs := max(int(cfg.Stagger/time.Millisecond), 1)
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
			cl, err := runLoadClient(ctx, cfg)
			if err != nil {
				cl.Err = err.Error()
			}
			res.PerClient[i] = cl
		}(i)
	}
	wg.Wait()
	res.Elapsed = time.Since(startAll)
	var sumSq float64
	for i, c := range res.PerClient {
		res.PktsTotal += c.Packets
		if c.Packets == 0 {
			res.Starved++
		}
		res.GoodputTotal += c.Goodput
		sumSq += c.Goodput * c.Goodput
		if i == 0 || c.Goodput < res.MinGoodput {
			res.MinGoodput = c.Goodput
		}
		res.MaxGoodput = max(res.MaxGoodput, c.Goodput)
	}
	if sumSq > 0 {
		n := float64(len(res.PerClient))
		res.Jain = res.GoodputTotal * res.GoodputTotal / (n * sumSq)
	}
	return res, nil
}

// runLoadClient is one emulated client: one playout-free viewer behind
// the receive loop, summarized when its stream ends.
func runLoadClient(ctx context.Context, cfg LoadConfig) (ClientLoad, error) {
	conn, err := dialUDP(cfg.Addr)
	if err != nil {
		return ClientLoad{}, err
	}
	defer conn.Close()
	v := newViewer(nil)
	_, err = stream(ctx, conn, cfg.Dur, cfg.IdleExit, time.Now(), make([]byte, loadReadBuf), v.OnData)
	st := v.Stats(0)
	out := ClientLoad{Packets: st.Packets, Bytes: st.Bytes, HighestLayer: st.HighestLayer}
	if window := (st.LastArrival - st.FirstArrival).Seconds(); window > 0 {
		out.Goodput = float64(st.Bytes) / window
	}
	return out, err
}
