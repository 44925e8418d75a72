//go:build linux

// Command bench is the repo's one benchmark: three workloads against a
// netio.MultiServer running in its own child process over loopback UDP,
// two against the simulator in its own child process, end-to-end
// metrics with tracing off, and a separate traced run for the per-layer
// numbers. See README.md next to this file and BENCHMARK.json at the
// repo root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// How many times a run sets up, a fresh child each time; setup_s is the
// median. A simulator set-up includes a whole warm-up run, so it is
// repeated for simSetupBudget (twice at least) and then once more by
// the measured child itself: six samples of sim_fleet's 0.9 s, three of
// sim_paper's 2.4 s.
const (
	serveSetupReps = 21
	simSetupBudget = 4 * time.Second
)

// report collects one workload's metrics and prints each as it lands.
type report struct {
	result
	workload string
	na       []metricDef // declared per-layer metrics this workload does not exercise
}

func newReport(workload string) *report {
	return &report{workload: workload, result: result{Correct: true, Metrics: map[string]metricValue{}}}
}

func (r *report) set(defs []metricDef, name string, v float64, samples int) {
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric reported twice: " + name)
	}
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{v, d.Unit}
			fmt.Printf("%-14s %-40s %16.6g %-14s n=%d\n", r.workload, name, v, d.Unit, samples)
			return
		}
	}
	panic("bench: metric not declared in spec.go: " + name)
}

// notApplicable marks a declared metric as one this workload does not
// exercise. It is printed as n/a and left out of Metrics, so no reader
// and no --out file takes a 0 for a measurement; only the contract's
// result line, which must carry every per-layer name on every workload,
// fills it in (see contractLine).
func (r *report) notApplicable(d metricDef) {
	r.na = append(r.na, d)
	fmt.Printf("%-14s %-40s %16s %-14s\n", r.workload, d.Name, "n/a", d.Unit)
}

// contractLine is the result as the benchmark contract wants it on the
// last line of standard output: every declared metric present, the
// not-applicable ones as 0.
func (r *report) contractLine() result {
	res := r.result
	res.Metrics = make(map[string]metricValue, len(r.Metrics)+len(r.na))
	for name, m := range r.Metrics {
		res.Metrics[name] = m
	}
	for _, d := range r.na {
		res.Metrics[d.Name] = metricValue{0, d.Unit}
	}
	return res
}

func (r *report) note(format string, a ...any) {
	fmt.Printf("%-14s # %s\n", r.workload, fmt.Sprintf(format, a...))
}

func (r *report) flaw(format string, a ...any) {
	r.Correct = false
	r.note("INCORRECT: "+format, a...)
}

func main() {
	err := run(os.Args[1:])
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) >= 2 && args[0] == "-role" {
		switch args[1] {
		case "server":
			return serverMain(args[2:])
		case "sim":
			return simMain(args[2:])
		case "compare":
			if len(args) != 4 {
				return fmt.Errorf("usage: -role compare FIRST.json SECOND.json")
			}
			return compare(args[2], args[3])
		}
		return fmt.Errorf("unknown -role %q", args[1])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seeds the generated inputs: viewer addresses, join order, withheld ACKs, the fleet's REDSeed")
	seconds := fs.Float64("seconds", 15, "how long a run measures")
	traceMode := fs.String("trace", "", "0 = end-to-end metrics only, 1 = traced run (per-layer metrics) only, unset = one after the other")
	out := fs.String("out", "", "also write every workload's result to this JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %v: need at least 1", *seconds)
	}
	var e2e, traced bool
	switch *traceMode {
	case "":
		e2e, traced = true, true
	case "0":
		e2e = true
	case "1":
		traced = true
	default:
		return fmt.Errorf("-trace %q: want 0 or 1", *traceMode)
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = append(todo, w)
	} else {
		return fmt.Errorf("unknown -workload %q", *name)
	}

	h, err := pinSelf()
	if err != nil {
		return err
	}
	all := map[string]*result{}
	var last *report
	var free *report // the part of a traced run that no workload changes, taken once per invocation
	for _, w := range todo {
		rep := newReport(w.Name)
		last = rep
		rep.note("host: nproc=%d pinning=%s generator_cpu=%d child_cpu=%d child_GOMAXPROCS=1 scaling=skipped (nproc=%d, one shard)",
			h.NProc, h.Pinning, h.ParentCPU, h.ChildCPU, h.NProc)
		if e2e {
			if err := endToEndRun(h, w, *seed, *seconds, rep); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
		}
		if traced {
			if err := tracedRun(h, w, *seed, *seconds, rep, !e2e); err != nil {
				return fmt.Errorf("%s traced: %w", w.Name, err)
			}
			if free == nil {
				free = newReport(anyWorkload)
				if err := workloadFree(*seconds, free); err != nil {
					return fmt.Errorf("isolated timings and replays: %w", err)
				}
			}
			for name, m := range free.Metrics {
				rep.Metrics[name] = m
			}
		}
		fmt.Printf("%-14s # ops=%d ops_failed=%d correct=%v\n", w.Name, rep.Attempted, rep.Failed, rep.Correct)
		all[w.Name] = &rep.result
	}
	if *out != "" {
		b, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The contract's result line: the last line of standard output.
	if len(todo) == 1 {
		return json.NewEncoder(os.Stdout).Encode(last.contractLine())
	}
	return json.NewEncoder(os.Stdout).Encode(all)
}

// anyWorkload labels the printed lines of the workload-independent
// metrics, which every workload's result then carries unchanged.
const anyWorkload = "any_workload"

// pinSelf pins this process (the generator) to the first CPU it may use
// and picks the second for children; with one CPU they share it.
func pinSelf() (*host, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	h := &host{NProc: len(cpus), ParentCPU: cpus[0], ChildCPU: cpus[0], Pinning: "shared"}
	if len(cpus) > 1 {
		h.ChildCPU, h.Pinning = cpus[1], "separate"
	}
	return h, pinProcess(h.ParentCPU)
}

func endToEndRun(h *host, w *workload, seed int64, seconds float64, rep *report) error {
	if w.serve != nil {
		var setups []float64
		for i := 0; i < serveSetupReps; i++ {
			d, err := serveSetupOnce(h, w.serve, seed)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		rep.note("set-ups: %.4g s", setups)
		rep.set(endToEnd, "setup_s", median(setups), len(setups))
		run, err := runServe(h, w.serve, seed, serveRamp, serveWindow, int(seconds/serveWindow.Seconds()))
		if err != nil {
			return err
		}
		if err := run.health(); err != nil {
			return fmt.Errorf("run invalid: %w", err)
		}
		serveEndToEnd(run, rep)
		return nil
	}
	// A simulator is set up once its warm-up run is over; the measured
	// child's own warm-up is the last of the samples.
	var setups []float64
	for start := time.Now(); len(setups) < 2 || time.Since(start) < simSetupBudget; {
		_, _, d, err := runSim(h, w.sim, seed, 0, true)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	runs, done, d, err := runSim(h, w.sim, seed, seconds, false)
	if err != nil {
		return err
	}
	setups = append(setups, d.Seconds())
	rep.note("set-ups: %.4g s", setups)
	rep.set(endToEnd, "setup_s", median(setups), len(setups))
	simEndToEnd(runs, done, rep)
	return nil
}

func serveEndToEnd(run *serveRun, rep *report) {
	var cpu, rate, layers []float64
	for _, w := range run.Windows {
		cpu = append(cpu, float64(w.Srv1.cpuUs()-w.Srv0.cpuUs())/float64(w.Pkts))
		rate = append(rate, float64(w.Pkts)/w.Wall.Seconds())
		layers = append(layers, w.LayersMean)
	}
	n := len(run.Windows)
	rep.note("windows: cpu_us_per_pkt=%.4g pkts_per_s=%.6g layers_mean=%.4g", cpu, rate, layers)
	rep.set(endToEnd, "cpu_us_per_pkt", median(cpu), n)
	rep.set(endToEnd, "pkts_per_s", median(rate), n)
	rep.set(endToEnd, "layers_mean", median(layers), n)
	rep.set(endToEnd, "peak_rss_mb", float64(run.Final.MaxRSSKB)/1024, 1)
	serveVerdict(run, rep)
}

// serveVerdict folds the run's sessions and wire checks into the report.
func serveVerdict(run *serveRun, rep *report) {
	rep.note("server: shards=%d batch=%s sockets=%s GOMAXPROCS=%d; generator: 1 goroutine, 1 socket, SO_RCVBUF granted %d B, %d viewers",
		run.Ready.Shards, run.Ready.Batch, run.Ready.Sockets, run.Ready.GOMAXPROCS, run.RcvBuf, run.Sessions)
	rep.note("sessions: delivered share of cap x stream time: min %.3f, p50 %.3f (n=%d)",
		quantile(run.Delivered, 0), quantile(run.Delivered, 0.5), len(run.Delivered))
	rep.Attempted += run.Attempted
	rep.Failed += run.Failed
	if run.Failed > 0 {
		rep.note("%d of %d sessions failed; first: %s", run.Failed, run.Attempted, run.FailWhy)
	}
	if run.Violations > 0 {
		rep.flaw("%d malformed or misdirected data packets; first: %s", run.Violations, run.Violation)
	}
}

// runSim runs the sim child to completion and returns its timed runs,
// its last line, and how long it took from fork to the end of its
// warm-up run. A setupOnly child stops there.
func runSim(h *host, kind string, seed int64, seconds float64, setupOnly bool) (runs []simRun, done simDone, setup time.Duration, err error) {
	c, err := spawn(h.ParentCPU, h.ChildCPU, simArgs(kind, seed, seconds, setupOnly)...)
	if err != nil {
		return nil, done, 0, err
	}
	defer c.stop()
	for {
		var line struct {
			simRun
			simDone
		}
		if err := c.recv(&line); err != nil {
			return nil, done, 0, err
		}
		switch {
		case line.Warm:
			setup = time.Since(c.start)
			if setupOnly {
				return nil, done, setup, c.stop()
			}
		case line.Done:
			return runs, line.simDone, setup, c.stop()
		default:
			runs = append(runs, line.simRun)
		}
	}
}

// simEndToEnd reports the fastest timed run's CPU per packet. Timed
// runs do identical, deterministic work from a collected heap, so
// whatever a run costs above the fastest one is the host's other
// tenants, not the code; the fastest run is what repeats from one set
// of runs to the next. pkts_per_s is per simulated second: like the
// serve workloads' it says what was delivered, not how fast the host
// went (1/cpu_us_per_pkt says that: the simulator is one thread).
func simEndToEnd(runs []simRun, done simDone, rep *report) {
	var cpu []float64
	for _, r := range runs {
		cpu = append(cpu, float64(r.CPUUs)/float64(r.Pkts))
	}
	rep.note("timed runs: cpu_us_per_pkt=%.4g", cpu)
	rep.set(endToEnd, "cpu_us_per_pkt", quantile(cpu, 0), len(runs))
	rep.set(endToEnd, "pkts_per_s", float64(runs[0].Pkts)/runs[0].SimSec, len(runs))
	rep.set(endToEnd, "layers_mean", runs[0].LayersMean, len(runs))
	rep.set(endToEnd, "peak_rss_mb", float64(done.MaxRSSKB)/1024, 1)
	simVerdict(runs, rep)
}

func simVerdict(runs []simRun, rep *report) {
	rep.note("sim.model_digest %s (must not change across commits that leave the model alone)", runs[0].Digest)
	for i, r := range runs {
		rep.Attempted++
		if r.Flaw != "" {
			rep.Failed++
			rep.flaw("timed run %d: %s", i, r.Flaw)
		}
	}
}

// tracedRun is the workload's own part of the separate run behind the
// per-layer metrics: a shortened run of the workload for the in-situ
// numbers (workloadFree is the rest). judge says whether this run also
// decides ops and correctness (it does when no end-to-end run came
// first).
func tracedRun(h *host, w *workload, seed int64, seconds float64, rep *report, judge bool) error {
	if w.serve != nil {
		run, err := runServe(h, w.serve, seed, serveRamp, serveWindow, int(seconds/3/serveWindow.Seconds())+1)
		if err != nil {
			return err
		}
		if err := run.health(); err != nil {
			return fmt.Errorf("run invalid: %w", err)
		}
		servePerLayer(run, rep)
		if judge {
			serveVerdict(run, rep)
		}
	} else {
		runs, _, _, err := runSim(h, w.sim, seed, seconds/3, false)
		if err != nil {
			return err
		}
		simPerLayer(runs, rep)
		if judge {
			simVerdict(runs, rep)
		}
	}
	for _, d := range perLayer {
		if _, done := rep.Metrics[d.Name]; !done && d.inSitu() {
			rep.notApplicable(d) // the other family's
		}
	}
	return nil
}

// workloadFree is the part of a traced run that does not depend on the
// workload: the isolated timings and the traced replays, about a
// quarter of seconds spent on the timings. An invocation takes them
// once, whatever the number of workloads it runs.
func workloadFree(seconds float64, rep *report) error {
	ref, err := newSimRef()
	if err != nil {
		return err
	}
	timings, err := layerTimings(time.Duration(seconds*0.25*float64(time.Second)), ref)
	if err != nil {
		return err
	}
	for _, d := range perLayer {
		if v, ok := timings[d.Name]; ok {
			rep.set(perLayer, d.Name, v, 3)
		}
	}
	return replays(ref, rep)
}

func servePerLayer(run *serveRun, rep *report) {
	first, last := run.Windows[0].Srv0, run.Windows[len(run.Windows)-1].Srv1
	var pkts, genCPU int64
	var wall time.Duration
	for _, w := range run.Windows {
		pkts += w.Pkts
		genCPU += w.Gen1.cpuUs() - w.Gen0.cpuUs()
		wall += w.Wall
	}
	n := int(pkts)
	per := func(d int64) float64 { return float64(d) / float64(pkts) }
	s0, s1 := first.Stats, last.Stats
	rep.set(perLayer, "netio.srv.user_us_per_pkt", per(last.UserUs-first.UserUs), n)
	rep.set(perLayer, "netio.srv.sys_us_per_pkt", per(last.SysUs-first.SysUs), n)
	rep.set(perLayer, "netio.srv.ctxsw_per_kpkt", 1000*per(last.CtxSw-first.CtxSw), n)
	rep.set(perLayer, "netio.srv.batch_pkts_mean", float64(s1.SentPkts-s0.SentPkts)/float64(last.Batches-first.Batches), int(last.Batches-first.Batches))
	rep.set(perLayer, "netio.srv.allocs_per_pkt", per(int64(last.Mallocs-first.Mallocs)), n)
	rep.set(perLayer, "netio.srv.gc_cycles", float64(last.NumGC-first.NumGC), 1)
	rep.set(perLayer, "netio.srv.heap_kb_per_session", float64(last.HeapAlloc)/1024/float64(s1.ActiveClients), s1.ActiveClients)
	rep.set(perLayer, "netio.srv.acked_ratio", float64(s1.AckedPkts-s0.AckedPkts)/float64(s1.SentPkts-s0.SentPkts), int(s1.SentPkts-s0.SentPkts))
	rep.set(perLayer, "netio.srv.retransmits_per_kpkt", 1000*per(s1.Retransmits-s0.Retransmits), n)
	fin := run.Final.Stats
	rep.set(perLayer, "netio.srv.nack_drops", float64(fin.NackDrops), 1)
	rep.set(perLayer, "netio.srv.unknown_acks", float64(fin.UnknownAcks), 1)
	rep.set(perLayer, "netio.srv.bad_pkts", float64(fin.BadPackets), 1)
	rep.set(perLayer, "netio.srv.rejected", float64(fin.Rejected), 1)
	rep.set(perLayer, "netio.srv.expired", float64(s1.Expired-s0.Expired), 1)
	rep.set(perLayer, "netio.srv.rcvbuf_drops", float64(run.SrvDrops), 1)
	rep.set(perLayer, "netio.client.gap_jitter_p50_us", quantile(run.JitterUs, 0.5), len(run.JitterUs))
	rep.set(perLayer, "netio.client.gap_jitter_p99_us", quantile(run.JitterUs, 0.99), len(run.JitterUs))
	rep.set(perLayer, "netio.client.join_ms_p50", quantile(run.JoinMs, 0.5), len(run.JoinMs))
	rep.set(perLayer, "netio.client.join_ms_p99", quantile(run.JoinMs, 0.99), len(run.JoinMs))
	rep.set(perLayer, "netio.loadgen.cpu_share", float64(genCPU)/float64(wall.Microseconds()), 1)
	rep.set(perLayer, "netio.loadgen.rcvbuf_drops", float64(run.RcvDrops), 1)
}

func simPerLayer(runs []simRun, rep *report) {
	var nsEv, allocs []float64
	for _, r := range runs {
		nsEv = append(nsEv, float64(r.WallNs)/float64(r.Events))
		allocs = append(allocs, 1000*float64(r.Mallocs)/float64(r.Events))
	}
	r, n := runs[0], len(runs)
	rep.set(perLayer, "sim.ns_per_event", quantile(nsEv, 0), n) // the fastest run, as for the end-to-end metrics
	rep.set(perLayer, "sim.events_per_pkt", float64(r.Events)/float64(r.Pkts), n)
	rep.set(perLayer, "sim.allocs_per_kevent", median(allocs), n)
	rep.set(perLayer, "sim.model_digest", digest48(r.Digest), n)
	rep.set(perLayer, "scenario.link_drop_ratio", float64(r.Dropped)/float64(r.Offered), n)
	rep.set(perLayer, "scenario.qa_layers_mean", r.LayersMean, n)
	rep.set(perLayer, "scenario.qa_efficiency_e", r.Efficiency, n)
	rep.set(perLayer, "scenario.rap_backoffs", float64(r.Backoffs), n)
	rep.set(perLayer, "scenario.tcp_rtos", float64(r.RTOs), n)
}

// replays runs the two traced replays, writes their spans to
// bench/out/trace.json, and reports each layer's self-time share and
// what the tracing cost.
func replays(ref *simRef, rep *report) error {
	// 2000 warm rounds are 16 s on the sessions' own clock: start-up is
	// over and the first layers are added before a span is recorded.
	// Untraced and traced legs then alternate on the same sessions.
	const warm, rounds, pairs = 2000, 200, 3
	rp, err := newServeReplay()
	if err != nil {
		return err
	}
	defer rp.close()
	if _, err := rp.run(nil, warm); err != nil {
		return err
	}
	var plain, traced []float64
	var serveSpans []span
	for i := 0; i < pairs; i++ {
		p, err := rp.run(nil, rounds)
		if err != nil {
			return err
		}
		tr := newTracer(rounds * (2 + 9*block))
		t, err := rp.run(tr, rounds)
		if err != nil {
			return err
		}
		plain, traced, serveSpans = append(plain, p), append(traced, t), tr.spans
	}
	simTr := newTracer(16)
	if err := simReplay(simTr, ref); err != nil {
		return err
	}
	serveShare, simShare := shares(selfTimes(serveSpans)), shares(selfTimes(simTr.spans))
	for _, l := range []string{"core", "rap", "netio.wire", "netio.batch", "serve.harness"} {
		rep.set(perLayer, "trace.share."+l, serveShare[l], len(serveSpans))
	}
	for _, l := range []string{"sim.sched", "scenario.run", "scenario.report", "figures.render", "trace.tsv", "sim.harness"} {
		rep.set(perLayer, "trace.share."+l, simShare[l], len(simTr.spans))
	}
	rep.set(perLayer, "trace.overhead_ratio", median(traced)/median(plain), len(plain))
	path := filepath.Join("bench", "out", "trace.json")
	if _, err := os.Stat(filepath.Join("bench", "spec.go")); err != nil {
		path = filepath.Join("out", "trace.json") // run from inside bench/, as the tests are
	}
	if err := writeTrace(path, traceFile{
		Note:  "spans of the last traced replays; name is layer:call, times are ns since the replay's tracer started, parent indexes the same list (-1 = root), id is the session (serve) or run (sim)",
		Serve: serveSpans, Sim: simTr.spans,
	}); err != nil {
		return err
	}
	rep.note("trace: %d serve-replay and %d sim-replay spans written to %s", len(serveSpans), len(simTr.spans), path)
	return nil
}
