// Command qasim runs custom quality adaptation simulations and dumps
// their traces and event logs.
//
// Example:
//
//	qasim -bw 800000 -rtt 0.04 -tcp 10 -rap 9 -kmax 2 -dur 60 -c 10000
//
// -kmax accepts a comma-separated list; with more than one value the
// independent runs execute concurrently on a worker pool (-parallel
// bounds the workers, 0 = one per CPU) and are reported in order, with
// results identical to running them one at a time.
//
// -report FILE writes a structured JSON run report (effective config,
// final metric counters, histogram quantiles) for every run; "-" writes
// it to stdout. Each run gets its own metrics registry, so the report is
// byte-identical for any -parallel setting.
//
// -preset builds the scenario from a named preset instead of the custom
// setup; explicitly set flags override the preset's fields (see
// simFlags.configs):
//
//	qasim -preset T2 -dur 120 -report -
//	qasim -preset Fleet -flows 500 -report fleet.json
//
// -flows N selects the Fleet preset (half quality-adaptive flows, half
// Sack-TCP, capacity and queue scaled so the per-flow fair share is
// population-invariant) and -traceflows caps per-flow trace series while
// emitting fleet-wide aggregates; see scenario.Config.MaxTraceFlows.
//
// -fluid N adds N more background flows modeled as a fluid AIMD
// aggregate (half TCP, half RAP) instead of packet-level — the hybrid
// model that scales Fleet populations to 10^6 flows (see DESIGN.md,
// "Hybrid fluid/packet simulation"):
//
//	qasim -flows 100 -fluid 999900 -dur 10 -report -
//
// Every run is one engine on one goroutine; -parallel spreads the
// independent sweep configs over cores, and -fluid is the way to scale
// one run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"qav/internal/metrics"
	"qav/internal/scenario"
	"qav/internal/transport"
)

func main() {
	sf := newSimFlags(flag.CommandLine)
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (0 = one per CPU)")
	tsv := flag.Bool("tsv", false, "dump full time series as TSV")
	events := flag.Bool("events", false, "dump the first QA flow's decision log")
	reportPath := flag.String("report", "", `write a JSON run report to this file ("-" = stdout)`)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	cfgs, kmaxes, err := sf.configs()
	if err != nil {
		fatal(err)
	}
	if *reportPath != "" {
		for i := range cfgs {
			cfgs[i].Metrics = metrics.NewRegistry()
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer func() {
			runtime.GC()
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}

	results, err := scenario.RunAll(cfgs, *parallel)
	if err != nil {
		fatal(err)
	}

	for i, res := range results {
		cfg, kmax := cfgs[i], kmaxes[i]
		// Non-default transports are called out in the header; the
		// default keeps the historical line byte-stable for diffing.
		trTag := ""
		if cfg.Transport != "" && cfg.Transport != transport.KindRAP {
			trTag = fmt.Sprintf(" transport=%s", cfg.Transport)
		}
		fmt.Printf("# %s:%s bw=%.0fB/s rtt=%.0fms C=%.0fB/s Kmax=%d flows=%dQA+%dRAP+%dTCP\n",
			cfg.Name, trTag, cfg.BottleneckRate, 1000*(2*(cfg.LinkDelay+cfg.AccessDelay)), cfg.QA.C, kmax, cfg.NumQA, cfg.NumRAP, cfg.NumTCP)
		if res.QASrc != nil {
			fmt.Printf("# qa: avg_rate=%.0f avg_layers=%.2f played=%.1fs stalls=%.2fs\n",
				res.Series.Get("qa.rate").Avg(),
				res.Series.Get("qa.layers").Avg(),
				res.PlayedSec, res.StallSec)
			fmt.Printf("# events: adds=%d drops=%d backoffs=%d efficiency=%.2f%% poor-dist=%.1f%%\n",
				res.Stats.Adds, res.Stats.Drops, res.Stats.Backoffs,
				100*res.Stats.AvgEfficiency, res.Stats.PoorDistPct)
		} else if len(res.RAPSrcs) > 0 {
			// No QA flow (SingleRAP, or a cross-traffic-only custom run):
			// summarize the congestion-controlled cross traffic under its
			// actual backend instead of printing QA fields that don't exist.
			var recv, backoffs, lost int64
			for _, r := range res.RAPSrcs {
				recv += r.RecvBytes
				c := r.Tr.Counters()
				backoffs += c.Backoffs
				lost += c.Lost
			}
			kind := cfg.Transport
			if kind == "" {
				kind = transport.KindRAP
			}
			fmt.Printf("# %s: flows=%d goodput=%.0fB/s backoffs=%d lost=%d\n",
				kind, len(res.RAPSrcs), float64(recv)/cfg.Duration, backoffs, lost)
		}
		if cfg.MaxTraceFlows > 0 {
			fs := res.Report().Fleet
			fmt.Printf("# fleet: flows=%d goodput: qa=%.0fB/s rap=%.0fB/s tcp=%.0fB/s jain(tcp)=%.3f\n",
				fs.Flows, fs.QAGoodputBps, fs.RAPGoodputBps, fs.TCPGoodputBps, fs.JainFairnessTCP)
		}
		if res.Fluid != nil {
			fl := res.Report().Fluid
			fmt.Printf("# fluid: flows=%dTCP+%dRAP goodput=%.0fB/s dropped=%.0fB backoffs=%d\n",
				fl.TCPFlows, fl.RAPFlows, fl.GoodputBps, fl.DroppedBytes, fl.Backoffs)
		}

		if *events {
			for _, e := range res.Events {
				fmt.Printf("%8.3f %-8s layer=%d rate=%.0f bufdrop=%.0f buftotal=%.0f poor=%v critical=%v\n",
					e.Time, e.Kind, e.Layer, e.Rate, e.BufDrop, e.BufTotal, e.PoorDist, e.Critical)
			}
		}
		if *tsv {
			if err := res.Series.WriteTSV(os.Stdout); err != nil {
				fatal(err)
			}
		}
	}

	if *reportPath != "" {
		reps := make([]scenario.RunReport, len(results))
		for i, res := range results {
			reps[i] = res.Report()
		}
		if err := writeReports(*reportPath, reps); err != nil {
			fatal(err)
		}
	}
}

func writeReports(path string, reps []scenario.RunReport) error {
	w := io.Writer(os.Stdout)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return scenario.WriteReports(w, reps)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qasim:", err)
	os.Exit(1)
}
