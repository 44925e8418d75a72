package scenario

import (
	"maps"
	"runtime"
	"sync"

	"qav/internal/core"
	"qav/internal/flow"
	"qav/internal/metrics"
)

// RunAll executes every config with Run on a bounded worker pool and
// returns the results in input order. workers <= 0 means one worker per
// available CPU (runtime.GOMAXPROCS(0)).
//
// Each run is an independent simulation with its own engine and seeded
// RNGs, so the outcome is deterministic: RunAll produces byte-identical
// Results to calling Run sequentially, regardless of worker count or
// scheduling order. If any run fails, RunAll still finishes the others
// and returns the error of the earliest failing config (by input index)
// alongside the partial results (failed slots are nil).
func RunAll(cfgs []Config, workers int) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	forEach(len(cfgs), workers, func(i int) {
		results[i], errs[i] = Run(cfgs[i])
	})
	return results, firstErr(errs)
}

// RunReports returns one report per config, in input order, each byte
// for byte what Run and then Report give for it. Configs equal once
// Name, QA and Metrics are cleared (with a registry attached to all or
// to none) run the same network, since no controller decision reaches
// it (DESIGN.md, "Flow driver"). Such a group is simulated once, for its
// first config, with the QA flows' controller calls recorded; each other
// config replays the record on fresh controllers (flow.Replay), and its
// report is the simulated one with the replay's "qa.*" controller
// metrics and delivered quality laid over it. A replayed config's own
// registry receives nothing. Configs with SchedRec set, or without a QA
// flow, run alone.
//
// Groups run on a pool of workers as RunAll's runs do, with the same
// determinism and error rule; a failed slot holds a zero report.
func RunReports(cfgs []Config, workers int) ([]RunReport, error) {
	var groups [][]int
	index := map[groupKey]int{}
	for i, cfg := range cfgs {
		key, ok := keyOf(cfg)
		if g, seen := index[key]; ok && seen {
			groups[g] = append(groups[g], i)
			continue
		}
		if ok {
			index[key] = len(groups)
		}
		groups = append(groups, []int{i})
	}
	reps := make([]RunReport, len(cfgs))
	errs := make([]error, len(cfgs))
	forEach(len(groups), workers, func(g int) {
		runGroup(cfgs, groups[g], reps, errs)
	})
	return reps, firstErr(errs)
}

// groupKey is what a group's configs share: the config without its name,
// controller parameters, registry and record, and whether it has a
// registry.
type groupKey struct {
	cfg     Config
	metrics bool
}

// keyOf returns cfg's group key, or false if cfg runs alone.
func keyOf(cfg Config) (groupKey, bool) {
	if cfg.SchedRec != nil || cfg.NumQA == 0 {
		return groupKey{}, false
	}
	k := groupKey{cfg: cfg, metrics: cfg.Metrics != nil}
	k.cfg.Name, k.cfg.QA, k.cfg.Metrics, k.cfg.record = "", core.Params{}, nil, nil
	return k, true
}

// runGroup simulates the group's first config and replays the others on
// its record. If the simulation fails, the rest of the group starts
// over without it.
func runGroup(cfgs []Config, group []int, reps []RunReport, errs []error) {
	lead := cfgs[group[0]]
	rec := lead.record
	if rec == nil {
		rec = new([][]flow.Input)
		lead.record = rec
	}
	res, err := Run(lead)
	if err != nil {
		errs[group[0]] = err
		if len(group) > 1 {
			runGroup(cfgs, group[1:], reps, errs)
		}
		return
	}
	reps[group[0]] = res.Report()
	for _, i := range group[1:] {
		reps[i], errs[i] = replayReport(cfgs[i], reps[group[0]], *rec)
		if cfgs[i].record != nil {
			*cfgs[i].record = *rec
		}
	}
}

// replayReport is cfg's report from base, the report of a simulated run
// of its group, and that run's record: fresh controllers replay the
// record, one per QA flow, instrumented as instrumentSources does; their
// metrics are laid over base's and the first one's delivered quality
// replaces base's.
func replayReport(cfg Config, base RunReport, rec [][]flow.Input) (RunReport, error) {
	if err := cfg.Normalize(); err != nil {
		return RunReport{}, err
	}
	ctrls := make([]*core.Controller, len(rec))
	for i := range ctrls {
		c, err := core.NewController(cfg.QA)
		if err != nil {
			return RunReport{}, err
		}
		ctrls[i] = c
	}
	var reg *metrics.Registry
	if cfg.Metrics != nil {
		reg = metrics.NewRegistry()
		instrumentControllers(reg, ctrls)
	}
	for i, c := range ctrls {
		flow.Replay(c, rec[i], cfg.PacketSize)
	}
	rep := base
	rep.Name, rep.Config = cfg.Name, cfg
	rep.Metrics = overlay(base.Metrics, reg.Snapshot())
	var res Result
	res.readController(ctrls[0])
	res.quality(&rep)
	return rep, nil
}

// overlay returns a copy of base with top's instruments laid over it.
func overlay(base, top metrics.Snapshot) metrics.Snapshot {
	out := metrics.Snapshot{
		Counters:   maps.Clone(base.Counters),
		Gauges:     maps.Clone(base.Gauges),
		Histograms: maps.Clone(base.Histograms),
	}
	maps.Copy(out.Counters, top.Counters)
	maps.Copy(out.Gauges, top.Gauges)
	maps.Copy(out.Histograms, top.Histograms)
	return out
}

// forEach calls do(i) for every i in [0, n) on a pool of workers (<= 0
// means one per CPU).
func forEach(n, workers int, do func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// firstErr is the first non-nil error of errs.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
