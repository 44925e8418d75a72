//go:build linux

package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"qav/internal/core"
	"qav/internal/netio"
	"qav/internal/rap"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the code under test re-executes itself in a child role.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "-role" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	code := m.Run()
	stopAll()
	os.Exit(code)
}

var (
	hostOnce sync.Once
	testHost *host
	hostErr  error
)

// pinned pins the test process once and returns where children go.
func pinned(t *testing.T) *host {
	hostOnce.Do(func() { testHost, hostErr = pinSelf() })
	if hostErr != nil {
		t.Skipf("cannot pin: %v", hostErr)
	}
	return testHost
}

var smokeSpec = serveSpec{Sessions: 8, JoinEvery: 5 * time.Millisecond, Stream: 10 * time.Second,
	CapBps: 16_000, Pkt: 512, C: 6_000, DropEvery: 50}

// checkAll fails unless rep holds every metric of defs, finite, with
// the declared unit, and nothing else beyond the names in also.
func checkAll(t *testing.T, rep *report, defs ...[]metricDef) {
	t.Helper()
	want := 0
	for _, ds := range defs {
		for _, d := range ds {
			want++
			m, ok := rep.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s not reported", rep.workload, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: %s in %q, declared %q", rep.workload, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", rep.workload, d.Name, m.Value)
			}
		}
	}
	if len(rep.Metrics) != want {
		t.Errorf("%s: %d metrics reported, %d declared", rep.workload, len(rep.Metrics), want)
	}
}

// TestSmokeServe is a 1 s, 8-viewer run of the whole serve path — child
// server, set-up, ramp, three windows, health gate — reporting every
// end-to-end metric and every in-situ serve metric exactly once
// (report.set panics on a second time).
func TestSmokeServe(t *testing.T) {
	h := pinned(t)
	if _, err := serveSetupOnce(h, &smokeSpec, 1); err != nil {
		t.Fatal(err)
	}
	run, err := runServe(h, &smokeSpec, 1, 300*time.Millisecond, time.Second/3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.health(); err != nil {
		t.Fatal(err)
	}
	rep := newReport("smoke_serve")
	rep.set(endToEnd, "setup_s", 0.01, 1)
	serveEndToEnd(run, rep)
	checkAll(t, rep, endToEnd)
	if !rep.Correct || rep.Attempted != 8 || rep.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d, want true 8 0", rep.Correct, rep.Attempted, rep.Failed)
	}
	for name, m := range rep.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end %s = %v, must never be 0", name, m.Value)
		}
	}
	if run.Final.Stats.Retransmits == 0 {
		t.Error("DropEvery=50 produced no retransmissions: the NACK path is not exercised")
	}

	per := newReport("smoke_serve")
	servePerLayer(run, per)
	for _, d := range perLayer {
		if _, ok := per.Metrics[d.Name]; d.From == fromServe && !ok {
			t.Errorf("in-situ serve metric %s not reported", d.Name)
		}
	}
}

// TestSmokeReports feeds synthetic sim runs and a 1 s workload-free
// traced part through the reporting code. As on a sim workload, the
// in-situ serve metrics are not applicable: they stay out of the result
// and appear, as 0, only on the contract's line, where every per-layer
// name of BENCHMARK.json must come out exactly once.
func TestSmokeReports(t *testing.T) {
	pinned(t)
	runs := []simRun{
		{WallNs: 9e8, CPUUs: 9e5, Mallocs: 1000, SimSec: 5, Events: 2e6, Pkts: 4e5, Offered: 41e4, Dropped: 1e4, LayersMean: 4.6, Efficiency: 0.99, Backoffs: 7, RTOs: 3, Digest: "00112233445566778899"},
		{WallNs: 8e8, CPUUs: 8e5, Mallocs: 1100, SimSec: 5, Events: 2e6, Pkts: 4e5, Offered: 41e4, Dropped: 1e4, LayersMean: 4.6, Efficiency: 0.99, Backoffs: 7, RTOs: 3, Digest: "00112233445566778899"},
		{WallNs: 7e8, CPUUs: 7e5, Mallocs: 1200, SimSec: 5, Events: 2e6, Pkts: 4e5, Offered: 41e4, Dropped: 1e4, LayersMean: 4.6, Efficiency: 0.99, Backoffs: 7, RTOs: 3, Digest: "00112233445566778899", Flaw: "made up"},
	}
	e2e := newReport("smoke_sim")
	e2e.set(endToEnd, "setup_s", 0.9, 3)
	simEndToEnd(runs, simDone{Done: true, MaxRSSKB: 18 << 10}, e2e)
	checkAll(t, e2e, endToEnd)
	if got := e2e.Metrics["cpu_us_per_pkt"].Value; got != 1.75 {
		t.Errorf("cpu_us_per_pkt = %v, want the fastest run's 1.75", got)
	}
	if got := e2e.Metrics["pkts_per_s"].Value; got != 8e4 {
		t.Errorf("pkts_per_s = %v, want 4e5 packets over 5 simulated s", got)
	}
	if e2e.Correct || e2e.Attempted != 3 || e2e.Failed != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 3 1", e2e.Correct, e2e.Attempted, e2e.Failed)
	}

	rep := newReport("smoke_sim")
	simPerLayer(runs, rep)
	if got, want := rep.Metrics["sim.model_digest"].Value, float64(0x001122334455); got != want {
		t.Errorf("digest48 = %v, want %v", got, want)
	}
	if err := workloadFree(1, rep); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		switch _, done := rep.Metrics[d.Name]; {
		case d.From == fromServe && done:
			t.Errorf("%s reported on a sim workload", d.Name)
		case d.From == fromServe:
			rep.notApplicable(d)
		case !done:
			t.Errorf("%s not reported", d.Name)
		}
	}
	line := &report{result: rep.contractLine(), workload: rep.workload}
	checkAll(t, line, perLayer)
	for _, group := range [][]string{
		{"core", "rap", "netio.wire", "netio.batch", "serve.harness"},
		{"sim.sched", "scenario.run", "scenario.report", "figures.render", "trace.tsv", "sim.harness"},
	} {
		sum := 0.0
		for _, l := range group {
			sum += rep.Metrics["trace.share."+l].Value
		}
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("trace shares %v sum to %v, want 1 ± 0.02", group, sum)
		}
	}
	if r := rep.Metrics["trace.overhead_ratio"].Value; r <= 0 || r > 1.5 {
		t.Errorf("trace.overhead_ratio = %v", r)
	}
}

// TestPktinfoRoundTrip runs the generator against an in-process
// MultiServer: each of 8 spoofed source addresses must get its own
// stream back on the one socket.
func TestPktinfoRoundTrip(t *testing.T) {
	conns, err := netio.ListenReuseport("udp4", "127.0.0.1:0", 1)
	if err != nil {
		t.Skipf("reuseport listen: %v", err)
	}
	defer conns[0].Close()
	srv, err := netio.NewMultiServerConns(conns, netio.MultiConfig{
		QA:  core.Params{C: 6_000, Kmax: 2, MaxLayers: maxLayers, StartupSec: 0.2},
		RAP: rap.Config{PacketSize: 512, MaxRate: 16_000, InitialRTT: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() { srv.Serve(ctx); close(served) }()
	defer func() { cancel(); <-served }()

	spec := smokeSpec
	spec.DropEvery = 0
	rd := serverReady{Port: conns[0].LocalAddr().(*net.UDPAddr).Port}
	g, err := newGenerator(serverAddr(rd), &spec, 7, 8)
	if err != nil {
		t.Skipf("IP_PKTINFO refused: %v", err)
	}
	defer g.close()
	g.t0 = time.Now()
	if err := g.run(g.t0.Add(600 * time.Millisecond)); err != nil {
		t.Skipf("spoofed-source send refused: %v", err)
	}
	if g.violations > 0 {
		t.Fatalf("%d violations; first: %s", g.violations, g.violation)
	}
	seen := map[[4]byte]bool{}
	for i := range g.sess {
		v := &g.sess[i]
		if v.pkts < 5 {
			t.Errorf("viewer %d (%v) got %d packets", i, v.addr, v.pkts)
		}
		if v.lastSeq != v.pkts-1 {
			t.Errorf("viewer %d: last seq %d after %d packets: not its own stream", i, v.lastSeq, v.pkts)
		}
		if seen[v.addr] {
			t.Errorf("address %v given to two viewers", v.addr)
		}
		seen[v.addr] = true
	}
	if st := srv.Stats(); st.Accepted != 8 || st.UnknownAcks != 0 || st.BadPackets != 0 {
		t.Errorf("server saw accepted=%d unknown_acks=%d bad=%d, want 8 0 0", st.Accepted, st.UnknownAcks, st.BadPackets)
	}
}
