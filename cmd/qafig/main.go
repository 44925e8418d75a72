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
//	qafig -all -seeds 200      # every seeded fact of Figs 11-13 and Tables 1-2
//	qafig -transports       # transport A/B: rap vs delay vs greedy
//	qafig -fig 11 -transport delay   # any figure on another backend
//	qafig -all              # everything, summaries only
//	qafig -fig 11 -scale 1  # raw 800 Kb/s parameterization
//	qafig -tables -parallel 4   # sweep on 4 workers (0 = all cores)
//	qafig -tables -cpuprofile cpu.pprof -memprofile mem.pprof
//	qafig -fig 11 -report runs.json   # plus a machine-diffable run report
//
// One sweep runs every cell a mode reads once, on -parallel workers
// (default: one per CPU), byte-identical to a sequential run. -seeds N
// prints its rate and counts of simulations and followers on stderr.
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
	seeds := flag.Int("seeds", 0, "with -all, -tables or -fig 11, 12, 13: run start seeds 1..N and print each cell or fact as median [p10, p90]")
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
	modes := 0
	for _, on := range []bool{*all, *tables, *transports, *fig != 0} {
		if on {
			modes++
		}
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case modes == 0:
		flag.Usage()
		os.Exit(2)
	case modes > 1:
		fmt.Fprintln(os.Stderr, "qafig: -all, -tables, -transports and -fig exclude each other")
		os.Exit(2)
	case *transports && (set["transport"] || set["kmax"]):
		fmt.Fprintln(os.Stderr, "qafig: -transports runs every backend at Kmax 2 and takes no -transport or -kmax")
		os.Exit(2)
	case *seeds < 0 || *seeds > 0 && (*transports || *fig != 0 && (*fig < 11 || *fig > 13) || *report != ""):
		fmt.Fprintln(os.Stderr, "qafig: -seeds needs -all, -tables or -fig 11, 12 or 13, and a positive count, and takes no -report")
		os.Exit(2)
	}
	if err := run(*fig, *kmax, *seeds, *scale, *parallel, *tables, *transports, *all, trKind, *out, *report, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "qafig:", err)
		os.Exit(1)
	}
}

func run(fig, kmax, seeds int, scale float64, parallel int, tables, transports, all bool, trKind transport.Kind, out, report, cpuprofile, memprofile string) (err error) {
	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer closeKeep(f, &err)
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

	figs := []int{fig}
	switch {
	case all && seeds > 0: // Figs 1-2 have no seeded form
		figs, tables = []int{11, 12, 13}, true
	case all:
		figs, tables = []int{1, 2, 11, 12, 13}, true
	case tables:
		figs = nil
	}
	t0 := time.Now()
	var res *figures.Outputs
	if transports {
		res, err = figures.TransportSweep(scale, parallel)
	} else {
		res, err = figures.Regenerate(figs, tables, kmax, seeds, scale, parallel, scenario.WithTransport(trKind))
	}
	if err != nil {
		return err
	}
	if seeds > 0 {
		sec := time.Since(t0).Seconds()
		fmt.Fprintf(os.Stderr, "qafig: %d seeds in %.2f s, %.2f seeds/s (%d simulations, %d followers)\n",
			seeds, sec, float64(seeds)/sec, res.Simulations, res.Followers)
	}
	if err := res.Render(w, all); err != nil {
		return err
	}
	return writeReport(report, res.Reports)
}

// writeReport writes reps as a JSON report to path ("-" = stdout); a
// no-op when path is empty.
func writeReport(path string, reps []scenario.RunReport) (err error) {
	if path == "" {
		return nil
	}
	w := io.Writer(os.Stdout)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer closeKeep(f, &err)
		w = f
	}
	return scenario.WriteReports(w, reps)
}

// closeKeep closes f and keeps its error in *err unless *err is set.
func closeKeep(f *os.File, err *error) {
	if cerr := f.Close(); *err == nil {
		*err = cerr
	}
}
