//go:build linux

package main

import (
	"fmt"
	"net"
	"net/netip"
	"time"
)

// host is where the two processes run.
type host struct {
	NProc     int
	ParentCPU int
	ChildCPU  int
	Pinning   string // "separate" or "shared"
}

// serveWindow is one measured window: the child's marks at either end,
// the generator's own CPU, and what the generator received between.
type windowLog struct {
	Wall       time.Duration
	Pkts       int64
	LayersMean float64
	Srv0, Srv1 serverMark
	Gen0, Gen1 usage
}

type serveRun struct {
	Ready     serverReady
	Windows   []windowLog
	Final     serverMark
	Sessions  int
	GotData   int
	RcvBuf    int
	RcvDrops  int64 // datagrams the generator's socket buffer refused, over the windows
	SrvDrops  int64 // the same for the server's socket (ACKs and REQs lost to it)
	JitterUs  []float64
	JoinMs    []float64
	Delivered []float64 // per judged session: bytes received over cap x stream time seen

	Attempted, Failed int
	FailWhy           string
	Violations        int64
	Violation         string
}

func sessionsFor(s *serveSpec, total time.Duration) int {
	if s.Sessions > 0 {
		return s.Sessions
	}
	return int(total/s.JoinEvery) + 1
}

func startServer(h *host, s *serveSpec) (*child, serverReady, error) {
	var rd serverReady
	c, err := spawn(h.ParentCPU, h.ChildCPU, serverArgs(s)...)
	if err != nil {
		return nil, rd, err
	}
	if err := c.recv(&rd); err != nil {
		c.stop()
		return nil, rd, err
	}
	return c, rd, nil
}

func serverAddr(rd serverReady) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(rd.Port))
}

// setupWave is how many viewers join at once during set-up: few enough
// that their REQs fit the server socket's default receive buffer.
const setupWave = 64

// serveSetupOnce times one server start as the audience sees it: from
// just before the fork until every viewer of the workload's steady
// state (at most 1000) holds its first data packet, when they join as
// fast as the server answers, a wave at a time.
func serveSetupOnce(h *host, s *serveSpec, seed int64) (time.Duration, error) {
	c, rd, err := startServer(h, s)
	if err != nil {
		return 0, err
	}
	defer c.stop()
	probe := *s
	probe.JoinEvery = 0
	probe.Stream = 500 * time.Millisecond
	n := sessionsFor(s, s.Stream)
	if n > 1000 {
		n = 1000
	}
	g, err := newGenerator(serverAddr(rd), &probe, seed, n)
	if err != nil {
		return 0, err
	}
	defer g.close()
	g.t0 = time.Now()
	g.joinCap = 0
	for limit := g.t0.Add(joinLimit); g.withData < n; {
		if g.withData == g.joinCap {
			g.joinCap += setupWave
			if g.joinCap > n {
				g.joinCap = n
			}
		}
		if err := g.run(time.Now().Add(200 * time.Microsecond)); err != nil {
			return 0, err
		}
		if time.Now().After(limit) {
			return 0, fmt.Errorf("setup: %d of %d viewers got data within %v", g.withData, n, joinLimit)
		}
	}
	return time.Since(c.start), nil
}

// runServe offers s to a fresh server child: ramp, then the measured
// windows back to back with a mark at every boundary, then a short
// drain so the last joins are answered before the final count.
func runServe(h *host, s *serveSpec, seed int64, ramp, window time.Duration, windows int) (*serveRun, error) {
	total := ramp + time.Duration(windows)*window
	c, rd, err := startServer(h, s)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	g, err := newGenerator(serverAddr(rd), s, seed, sessionsFor(s, total))
	if err != nil {
		return nil, err
	}
	defer g.close()
	r := &serveRun{Ready: rd, Sessions: len(g.sess), RcvBuf: g.rcvBuf}

	g.t0 = time.Now()
	if err := g.run(g.t0.Add(ramp)); err != nil {
		return nil, err
	}
	genPort, srvPort := g.conn.LocalAddr().(*net.UDPAddr).Port, rd.Port
	drops0, err := socketDrops("00000000", genPort)
	if err != nil {
		return nil, err
	}
	srvDrops0, err := socketDrops("0100007F", srvPort)
	if err != nil {
		return nil, err
	}
	g.closeWindow()
	g.measuring = true
	var mark serverMark
	if err := c.ask("mark", &mark); err != nil {
		return nil, err
	}
	gen := readUsage()
	at := time.Now()
	for w := 0; w < windows; w++ {
		if err := g.run(g.t0.Add(ramp + time.Duration(w+1)*window)); err != nil {
			return nil, err
		}
		win := windowLog{Srv0: mark, Gen0: gen}
		if err := c.ask("mark", &mark); err != nil {
			return nil, err
		}
		gen = readUsage()
		now := time.Now()
		win.Wall, at = now.Sub(at), now
		win.Srv1, win.Gen1 = mark, gen
		win.Pkts, win.LayersMean = g.closeWindow()
		r.Windows = append(r.Windows, win)
	}
	g.measuring = false
	// Sessions are judged on what they held when the windows ended: the
	// drain below keeps receiving, and bytes that arrive in it must not
	// be divided by a stream time that stops here.
	endNs := int64(time.Since(g.t0))
	logs := make([]sessionLog, len(g.sess))
	for i := range g.sess {
		logs[i] = g.sess[i].sessionLog
	}
	drops1, err := socketDrops("00000000", genPort)
	if err != nil {
		return nil, err
	}
	srvDrops1, err := socketDrops("0100007F", srvPort)
	if err != nil {
		return nil, err
	}
	r.RcvDrops, r.SrvDrops = drops1-drops0, srvDrops1-srvDrops0

	// Drain: no new joins, so every accepted session gets its first data
	// and the child's Accepted can be held against the generator's count.
	g.joinCap = g.nextJoin
	if err := g.run(time.Now().Add(300 * time.Millisecond)); err != nil {
		return nil, err
	}
	if err := c.ask("quit", &r.Final); err != nil {
		return nil, err
	}

	for i := range g.sess {
		v := &g.sess[i]
		if v.FirstDataNs != 0 {
			r.JoinMs = append(r.JoinMs, float64(v.FirstDataNs-v.DueNs)/1e6)
		}
		vd := logs[i].judge(endNs, s.Stream, s.CapBps)
		if vd.Attempted {
			r.Attempted++
		}
		if vd.Delivered > 0 {
			r.Delivered = append(r.Delivered, vd.Delivered)
		}
		if vd.Failed {
			if r.Failed == 0 {
				r.FailWhy = fmt.Sprintf("viewer %d: %s", i, vd.Why)
			}
			r.Failed++
		}
	}
	r.JitterUs = make([]float64, len(g.jitterUs))
	for i, us := range g.jitterUs {
		r.JitterUs[i] = float64(us)
	}
	r.GotData = g.withData
	r.Violations, r.Violation = g.violations, g.violation
	return r, c.stop()
}

// health is the generator-health gate: the numbers must measure the
// server, not the generator. A non-nil error invalidates the run.
func (r *serveRun) health() error {
	var pkts, genCPU int64
	var wall time.Duration
	for _, w := range r.Windows {
		pkts += w.Pkts
		genCPU += w.Gen1.cpuUs() - w.Gen0.cpuUs()
		wall += w.Wall
	}
	if share := float64(genCPU) / float64(wall.Microseconds()); share > 0.70 {
		return fmt.Errorf("generator used %.2f of its CPU (limit 0.70): it may be the bottleneck", share)
	}
	if float64(r.RcvDrops) > 0.001*float64(pkts) {
		return fmt.Errorf("generator socket dropped %d of %d packets (limit 0.1%%)", r.RcvDrops, pkts)
	}
	if int(r.Final.Stats.Accepted) != r.GotData {
		return fmt.Errorf("server accepted %d sessions, %d got data", r.Final.Stats.Accepted, r.GotData)
	}
	return nil
}
