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
// flags; explicitly set flags still override the preset's fields:
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
// -shards N splits ONE run across N engines (a bottleneck shard plus
// N-1 flow shards) synchronized by a conservative time barrier. Results
// — reports, traces, TSVs — are bit-identical to -shards 1; see
// DESIGN.md, "Parallel DES". Orthogonal to -parallel, which runs the
// independent sweep configs concurrently.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"qav/internal/core"
	"qav/internal/metrics"
	"qav/internal/scenario"
	"qav/internal/transport"
)

func main() {
	preset := flag.String("preset", "", "build the scenario from a preset ("+strings.Join(scenario.Presets(), ", ")+"); explicit flags override its fields")
	flows := flag.Int("flows", 0, "total flow population; implies -preset Fleet when no preset is named")
	fluid := flag.Int("fluid", 0, "additional background flows modeled as a fluid aggregate (half TCP, half RAP) instead of packet-level")
	traceFlows := flag.Int("traceflows", -1, "cap per-flow trace series at N flows per class and emit fleet aggregates (0 = legacy full tracing, -1 = preset default)")
	bw := flag.Float64("bw", 800_000, "bottleneck bandwidth, bytes/s")
	rtt := flag.Float64("rtt", 0.04, "base round-trip time, seconds")
	queue := flag.Float64("queue", 0.12, "bottleneck queue, seconds of bandwidth")
	red := flag.Bool("red", false, "use RED instead of DropTail at the bottleneck")
	ntcp := flag.Int("tcp", 10, "number of competing Sack-TCP flows")
	nrap := flag.Int("rap", 9, "number of competing plain RAP flows")
	cbrFrac := flag.Float64("cbr", 0, "CBR burst rate as a fraction of bw (0 = none)")
	cbrStart := flag.Float64("cbr-start", 30, "CBR start time, s")
	cbrStop := flag.Float64("cbr-stop", 60, "CBR stop time, s")
	c := flag.Float64("c", 10_000, "per-layer consumption rate, bytes/s")
	kmaxList := flag.String("kmax", "2", "smoothing factor, or comma-separated list for a sweep")
	maxLayers := flag.Int("layers", 8, "maximum encoded layers")
	dur := flag.Float64("dur", 60, "simulated duration, seconds")
	pkt := flag.Int("pkt", 512, "packet size, bytes")
	transportName := flag.String("transport", "", "congestion-control backend for QA and cross-traffic flows: rap (default), delay, greedy")
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (0 = one per CPU)")
	shards := flag.Int("shards", 1, "engines per run: 1 = classic serial, N >= 2 = one bottleneck shard plus N-1 flow shards with identical results; pays off above roughly 4,000 flows (x1.4 at 10,000 flows and 3 shards on 2 vCPUs) and costs 10-20% below that (see DESIGN.md, Parallel DES)")
	tsv := flag.Bool("tsv", false, "dump full time series as TSV")
	events := flag.Bool("events", false, "dump the controller event log")
	reportPath := flag.String("report", "", `write a JSON run report to this file ("-" = stdout)`)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	kmaxes, err := parseKmaxes(*kmaxList)
	if err != nil {
		fatal(err)
	}
	trKind, err := transport.ParseKind(*transportName)
	if err != nil {
		fatal(err)
	}

	// Which flags were given explicitly: in preset mode only those
	// override the preset's fields.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	presetName := *preset
	if presetName == "" && (*flows > 0 || *fluid > 0) {
		presetName = "Fleet"
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

	cfgs := make([]scenario.Config, len(kmaxes))
	for i, kmax := range kmaxes {
		var cfg scenario.Config
		if presetName != "" {
			opts := []scenario.PresetOption{scenario.WithKmax(kmax)}
			if *flows > 0 {
				opts = append(opts, scenario.WithFlows(*flows))
			}
			if *fluid > 0 {
				opts = append(opts, scenario.WithFluidFlows(*fluid))
			}
			if set["transport"] {
				opts = append(opts, scenario.WithTransport(trKind))
			}
			cfg, err = scenario.Preset(presetName, opts...)
			if err != nil {
				fatal(err)
			}
			// Explicit flags override the preset's fields; untouched
			// flags keep the preset's values, not the flag defaults.
			if set["bw"] {
				cfg.BottleneckRate = *bw
			}
			if set["rtt"] {
				cfg.LinkDelay, cfg.AccessDelay = *rtt/4, *rtt/8
			}
			if set["queue"] {
				cfg.QueueBytes = int(cfg.BottleneckRate * *queue)
			}
			if set["red"] {
				cfg.UseRED = *red
			}
			if set["tcp"] {
				cfg.NumTCP = *ntcp
			}
			if set["rap"] {
				cfg.NumRAP = *nrap
			}
			if set["c"] {
				cfg.QA.C = *c
			}
			if set["layers"] {
				cfg.QA.MaxLayers = *maxLayers
			}
			if set["dur"] {
				cfg.Duration = *dur
			}
			if set["pkt"] {
				cfg.PacketSize = *pkt
			}
			if set["cbr"] {
				cfg.CBRRate = *cbrFrac * cfg.BottleneckRate
				cfg.CBRStart, cfg.CBRStop = *cbrStart, *cbrStop
			}
		} else {
			cfg = scenario.Config{
				Name:           fmt.Sprintf("custom(Kmax=%d)", kmax),
				Transport:      trKind,
				BottleneckRate: *bw,
				LinkDelay:      *rtt / 4,
				AccessDelay:    *rtt / 8,
				QueueBytes:     int(*bw * *queue),
				UseRED:         *red,
				PacketSize:     *pkt,
				NumTCP:         *ntcp,
				NumRAP:         *nrap,
				WithQA:         true,
				QA: core.Params{
					C:         *c,
					Kmax:      kmax,
					MaxLayers: *maxLayers,
				},
				Duration: *dur,
			}
			if *cbrFrac > 0 {
				cfg.CBRRate = *cbrFrac * *bw
				cfg.CBRStart = *cbrStart
				cfg.CBRStop = *cbrStop
			}
		}
		if *traceFlows >= 0 {
			cfg.MaxTraceFlows = *traceFlows
		}
		cfg.Shards = *shards
		// Normalize here (Run would do it too) so flag mistakes surface
		// before any simulation starts, with the effective defaults filled
		// in for the report.
		if err := cfg.Normalize(); err != nil {
			fatal(err)
		}
		if *reportPath != "" {
			cfg.Metrics = metrics.NewRegistry()
		}
		cfgs[i] = cfg
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
				fmt.Printf("%8.3f %-8s layer=%d rate=%.0f bufdrop=%.0f buftotal=%.0f poor=%v\n",
					e.Time, e.Kind, e.Layer, e.Rate, e.BufDrop, e.BufTotal, e.PoorDist)
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

func parseKmaxes(list string) ([]int, error) {
	var kmaxes []int
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad -kmax value %q: %v", part, err)
		}
		kmaxes = append(kmaxes, k)
	}
	if len(kmaxes) == 0 {
		return nil, fmt.Errorf("-kmax list %q is empty", list)
	}
	return kmaxes, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qasim:", err)
	os.Exit(1)
}
