//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"qav/internal/figures"
	"qav/internal/metrics"
	"qav/internal/scenario"
)

// simRun is one simulator run as the sim child reports it: what it cost
// the host, and the model statistics that no speed-up may change.
type simRun struct {
	Warm    bool   `json:"warm"`
	WallNs  int64  `json:"wall_ns"`
	CPUUs   int64  `json:"cpu_us"`
	Mallocs uint64 `json:"mallocs"`

	SimSec     float64 `json:"sim_sec"` // simulated seconds, summed over the run's scenarios
	Events     int64   `json:"events"`
	Pkts       int64   `json:"pkts"` // link.tx.packets
	Offered    int64   `json:"offered"`
	Dropped    int64   `json:"dropped"`
	Queued     int64   `json:"queued"`
	LayersMean float64 `json:"layers_mean"`
	Efficiency float64 `json:"efficiency"`
	Backoffs   int64   `json:"backoffs"`
	RTOs       int64   `json:"rtos"`
	Digest     string  `json:"digest"` // SHA-256 of the run's reports (and rendered tables)

	Flaw string `json:"flaw,omitempty"` // why the run's output is wrong, if it is
}

// simDone is the sim child's last line.
type simDone struct {
	Done     bool  `json:"done"`
	MaxRSSKB int64 `json:"maxrss_kb"`
}

func simArgs(kind string, seed int64, seconds float64, setupOnly bool) []string {
	a := []string{"-role", "sim", "-sim", kind, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if setupOnly {
		a = append(a, "-setup")
	}
	return a
}

func fleetConfig(seed int64) scenario.Config {
	cfg := scenario.MustPreset("Fleet", scenario.WithFlows(1000), scenario.WithScale(figures.DefaultScale))
	cfg.UseRED = true
	cfg.REDSeed = seed
	cfg.Duration = 5
	return cfg
}

var paperKmaxes = []int{2, 3, 4, 5, 8}

// account folds the reports of one run into r and computes its digest.
func (r *simRun) account(reps []scenario.RunReport, extra []byte) error {
	var layers, eff float64
	var qaFlows, effN int
	h := sha256.New()
	for i := range reps {
		rep := &reps[i]
		c, g := rep.Metrics.Counters, rep.Metrics.Gauges
		r.SimSec += rep.Config.Duration
		r.Events += c["sim.events.executed"]
		r.Pkts += c["link.tx.packets"]
		r.Offered += c["queue.offered"]
		r.Dropped += c["queue.dropped"]
		r.Queued += int64(g["queue.len"])
		r.Backoffs += c["qa.rap.backoffs"] + c["rap.backoffs"]
		r.RTOs += c["tcp.rto"]
		layers += g["qa.layers.mean"]
		qaFlows += rep.Fleet.QAFlows
		eff += rep.Drops.AvgEfficiency
		effN++
		b, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		h.Write(b)
	}
	h.Write(extra)
	r.Digest = fmt.Sprintf("%x", h.Sum(nil))
	if qaFlows > 0 {
		r.LayersMean = layers / float64(qaFlows)
	}
	if effN > 0 {
		r.Efficiency = eff / float64(effN)
	}
	// Every packet offered to the bottleneck was carried (counted when
	// its transmission starts), dropped, or is still queued.
	if r.Offered != r.Pkts+r.Dropped+r.Queued {
		r.Flaw = fmt.Sprintf("packets: offered %d != carried %d + dropped %d + queued %d", r.Offered, r.Pkts, r.Dropped, r.Queued)
	}
	return nil
}

func runFleet(seed int64) (simRun, error) {
	var r simRun
	cfg := fleetConfig(seed)
	cfg.Metrics = metrics.NewRegistry()
	res, err := scenario.Run(cfg)
	if err != nil {
		return r, err
	}
	return r, r.account([]scenario.RunReport{res.Report()}, nil)
}

func runPaper() (simRun, error) {
	var r simRun
	cells, reps, err := figures.TablesSweep(paperKmaxes, figures.DefaultScale, 1)
	if err != nil {
		return r, err
	}
	var tables bytes.Buffer
	if err := figures.RenderTables(&tables, cells); err != nil {
		return r, err
	}
	if err := r.account(reps, tables.Bytes()); err != nil {
		return r, err
	}
	// Paper fidelity: T1 never stalls the base layer, and buffered data
	// is almost never wasted on a drop (Table 1).
	var eff float64
	var n int
	for i, c := range cells {
		if c.Test != "T1" {
			continue
		}
		if reps[i].StallSec > 0 && r.Flaw == "" {
			r.Flaw = fmt.Sprintf("T1 Kmax=%d stalled %.3f s", c.Kmax, reps[i].StallSec)
		}
		eff += c.AvgEfficiency
		n++
	}
	r.Efficiency = eff / float64(n)
	if r.Efficiency < 0.99 && r.Flaw == "" {
		r.Flaw = fmt.Sprintf("T1 efficiency e = %.4f < 0.99", r.Efficiency)
	}
	return r, nil
}

// simMain is -role sim: one warm-up run, then timed runs for -seconds
// (at least three), one JSON line each.
func simMain(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	kind := fs.String("sim", "fleet", "fleet or paper")
	seed := fs.Int64("seed", 1, "REDSeed of the fleet")
	seconds := fs.Float64("seconds", 10, "keep starting timed runs until this many seconds have passed")
	setupOnly := fs.Bool("setup", false, "exit after the warm-up run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *kind != "fleet" && *kind != "paper" {
		return fmt.Errorf("unknown -sim %q", *kind)
	}
	exitOnStdinEOF()
	out := json.NewEncoder(os.Stdout)
	one := func() (simRun, error) {
		runtime.GC() // every run starts from the same heap
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		u0, t0 := readUsage(), time.Now()
		var r simRun
		var err error
		if *kind == "fleet" {
			r, err = runFleet(*seed)
		} else {
			r, err = runPaper()
		}
		r.WallNs = int64(time.Since(t0))
		r.CPUUs = readUsage().cpuUs() - u0.cpuUs()
		runtime.ReadMemStats(&m1)
		r.Mallocs = m1.Mallocs - m0.Mallocs
		return r, err
	}
	warm, err := one()
	if err != nil {
		return err
	}
	warm.Warm = true
	if *setupOnly {
		lastWords.Store(true)
		return out.Encode(warm)
	}
	out.Encode(warm)
	// Start another timed run while it should still end within -seconds.
	last := time.Duration(warm.WallNs)
	start := time.Now()
	for n := 0; n < 3 || (time.Since(start)+last).Seconds() < *seconds; n++ {
		r, err := one()
		if err != nil {
			return err
		}
		last = time.Duration(r.WallNs)
		if r.Digest != warm.Digest && r.Flaw == "" {
			r.Flaw = "model digest differs from the warm-up run's: not deterministic"
		}
		out.Encode(r)
	}
	lastWords.Store(true)
	return out.Encode(simDone{Done: true, MaxRSSKB: readUsage().MaxRSSKB})
}

// digest48 is the first 48 bits of a hex SHA-256 as a number (exact in
// a float64), so the digest can sit among the per-layer metrics.
func digest48(hexsum string) float64 {
	n, err := strconv.ParseUint(hexsum[:12], 16, 64)
	if err != nil {
		panic(err) // hexsum is our own %x of a SHA-256
	}
	return float64(n)
}
