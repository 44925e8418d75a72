// Command qafig regenerates the paper's figures and tables from the
// simulator and prints them as commented TSV (figures) or aligned text
// (tables).
//
// Usage:
//
//	qafig -fig 1            # Fig 1: single RAP sawtooth
//	qafig -fig 2            # Fig 2: filling/draining demonstration
//	qafig -fig 11           # Fig 11: detailed T1 trace (Kmax=2)
//	qafig -fig 12           # Fig 12: effect of Kmax
//	qafig -fig 13           # Fig 13: CBR-burst responsiveness
//	qafig -tables           # Tables 1 and 2 (Kmax sweep over T1/T2)
//	qafig -tables -seeds 200   # each cell as median [p10, p90] over 200 start seeds
//	qafig -fig 12 -seeds 200   # each Fig 11-13 fact as median [p10, p90]
//	qafig -transports       # transport A/B: rap vs delay vs greedy
//	qafig -fig 11 -transport delay   # any figure on another backend
//	qafig -all              # everything, summaries only
//	qafig -fig 11 -scale 1  # raw 800 Kb/s parameterization
//	qafig -tables -parallel 4   # sweep on 4 workers (0 = all cores)
//	qafig -tables -cpuprofile cpu.pprof -memprofile mem.pprof
//	qafig -fig 11 -report runs.json   # plus a machine-diffable run report
//
// Sweeps (-tables, -fig 12, -all) run their independent simulations on a
// worker pool; -parallel bounds the workers (default: one per CPU). The
// output is byte-identical to a sequential run. -tables and -fig 12
// simulate each test once and the other Kmax values follow it, their
// controllers fed each call as the simulated flow's driver makes it.
// -seeds N does so for start seeds 1..N and reports its rate in seeds/s
// on stderr: with -tables, -fig 12 or -fig 13 it runs the tables' sweep,
// 2N simulations and 8N followers, and prints the asked-for cells or
// facts; with -fig 11 it runs N 40-s T1 simulations.
//
// -report FILE writes one structured JSON run report per underlying
// simulation (effective config, final metric counters, histogram
// quantiles); "-" writes to stdout. Every run has its own metrics
// registry, so the report does not depend on -parallel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"qav/internal/figures"
	"qav/internal/scenario"
	"qav/internal/transport"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (1, 2, 11, 12, 13)")
	tables := flag.Bool("tables", false, "regenerate Tables 1 and 2")
	transports := flag.Bool("transports", false, "run the transport A/B sweep (Fig 11 scenario + Fleet per backend)")
	transportName := flag.String("transport", "", "congestion-control backend for the figure/table runs: rap (default), delay, greedy")
	all := flag.Bool("all", false, "regenerate everything (summaries only)")
	scale := flag.Float64("scale", figures.DefaultScale, "bottleneck scale factor (8 = paper figure axes)")
	kmax := flag.Int("kmax", 2, "smoothing factor for -fig 11")
	seeds := flag.Int("seeds", 0, "with -tables or -fig 11, 12, 13: run start seeds 1..N and print each cell or fact as median [p10, p90]")
	parallel := flag.Int("parallel", 0, "sweep worker goroutines (0 = one per CPU)")
	out := flag.String("out", "", "write output to file instead of stdout")
	report := flag.String("report", "", `write a JSON run report to this file ("-" = stdout)`)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	trKind, err := transport.ParseKind(*transportName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qafig:", err)
		os.Exit(1)
	}
	if *seeds < 0 || *seeds > 0 && (!*tables && (*fig < 11 || *fig > 13) || *report != "") {
		fmt.Fprintln(os.Stderr, "qafig: -seeds needs -tables or -fig 11, 12 or 13, and a positive count, and takes no -report")
		os.Exit(2)
	}
	if err := run(*fig, *kmax, *seeds, *scale, *parallel, *tables, *transports, *all, trKind, *out, *report, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "qafig:", err)
		os.Exit(1)
	}
}

func run(fig, kmax, seeds int, scale float64, parallel int, tables, transports, all bool, trKind transport.Kind, out, report, cpuprofile, memprofile string) error {
	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}

	opts := []scenario.PresetOption{scenario.WithTransport(trKind)}
	switch {
	case all:
		return runAll(w, scale, parallel, report, opts...)
	case transports:
		res, err := figures.TransportSweep(scale, parallel)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		return writeReport(report, res.Reports)
	case seeds > 0:
		t0 := time.Now()
		sims, followers := 2*seeds, 8*seeds
		var render func() error
		if tables {
			cells, err := figures.TablesSeeds(nil, seeds, scale, parallel, opts...)
			if err != nil {
				return err
			}
			render = func() error { return figures.RenderSpreads(w, cells) }
		} else {
			spread, err := figures.FigureSeeds(fig, kmax, seeds, scale, parallel, opts...)
			if err != nil {
				return err
			}
			if fig == 11 {
				sims, followers = seeds, 0
			}
			render = func() error { return spread.Render(w) }
		}
		sec := time.Since(t0).Seconds()
		fmt.Fprintf(os.Stderr, "qafig: %d seeds in %.2f s, %.2f seeds/s (%d simulations, %d followers)\n",
			seeds, sec, float64(seeds)/sec, sims, followers)
		return render()
	case tables:
		cells, reps, err := figures.TablesSweep(nil, scale, parallel, opts...)
		if err != nil {
			return err
		}
		if err := figures.RenderTables(w, cells); err != nil {
			return err
		}
		return writeReport(report, reps)
	case fig != 0:
		res, err := runFigure(fig, kmax, scale, parallel, opts...)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		return writeReport(report, res.Reports)
	default:
		flag.Usage()
		os.Exit(2)
		return nil
	}
}

// writeReport writes reps as a JSON report to path ("-" = stdout); a
// no-op when path is empty.
func writeReport(path string, reps []scenario.RunReport) error {
	if path == "" {
		return nil
	}
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

func runFigure(fig, kmax int, scale float64, parallel int, opts ...scenario.PresetOption) (*figures.Result, error) {
	switch fig {
	case 1:
		return figures.Figure1(opts...)
	case 2:
		return figures.Figure2(opts...)
	case 11:
		return figures.Figure11(kmax, scale, opts...)
	case 12:
		return figures.Figure12(scale, parallel, opts...)
	case 13:
		return figures.Figure13(scale, opts...)
	default:
		return nil, fmt.Errorf("unknown figure %d (have 1, 2, 11, 12, 13)", fig)
	}
}

func runAll(w io.Writer, scale float64, parallel int, report string, opts ...scenario.PresetOption) error {
	var reps []scenario.RunReport
	for _, fig := range []int{1, 2, 11, 12, 13} {
		res, err := runFigure(fig, 2, scale, parallel, opts...)
		if err != nil {
			return err
		}
		reps = append(reps, res.Reports...)
		fmt.Fprintf(w, "## %s\n", res.Name)
		for _, f := range res.Summary {
			fmt.Fprintf(w, "# %-28s %12.3f   %s\n", f.Key, f.Value, f.Note)
		}
		fmt.Fprintln(w)
	}
	cells, tabReps, err := figures.TablesSweep(nil, scale, parallel, opts...)
	if err != nil {
		return err
	}
	reps = append(reps, tabReps...)
	if err := figures.RenderTables(w, cells); err != nil {
		return err
	}
	return writeReport(report, reps)
}
