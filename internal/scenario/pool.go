package scenario

import (
	"runtime"
	"slices"
	"sync"

	"qav/internal/core"
	"qav/internal/flow"
	"qav/internal/metrics"
	"qav/internal/trace"
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

// RunEach runs every config and hands do each one's Result with its
// index. Configs equal once Name, QA and Metrics are cleared (with a
// registry attached to all or to none), traced or not, run the same
// network, since no controller decision reaches it (DESIGN.md, "Flow
// driver"). Such a group is simulated once, for its first traced
// config (its first if none is traced), and every other config of the
// group follows it: one fresh controller per QA flow takes each call
// the simulated flow's driver makes, as the driver makes it
// (flow.Replayer), and the sampler traces it as it traces the flow. A
// follower's Result has the series, events and delivered quality of a
// Run of its config, byte for byte, and its Report is that Run's
// report; its own registry receives nothing. Configs with SchedRec set,
// or without a QA flow, run alone.
//
// Config i is traced unless traced(i) is false (nil traces every
// config). An untraced config's run keeps the sampler's ticks and
// samples nothing: its Result has no series and no decision log
// (Events is nil), and its report, which reads counters and neither of
// those, is the same.
//
// Groups run on a pool of workers as RunAll's runs do, with the same
// determinism. do runs on the worker of the config's group once the
// group's simulation has ended, so calls for different groups may run
// at once. RunEach returns the number of simulations it started, one
// per group (every other config followed one), and the error of the
// earliest failing config by input index; do never sees a failed
// config. If a group's simulation fails, the rest of the group starts
// over without it.
func RunEach(cfgs []Config, workers int, traced func(i int) bool, do func(i int, res *Result)) (int, error) {
	cfgs = slices.Clone(cfgs)
	var groups [][]int
	index := map[groupKey]int{}
	for i := range cfgs {
		cfgs[i].untraced = cfgs[i].untraced || traced != nil && !traced(i)
		key, ok := keyOf(cfgs[i])
		g, seen := index[key]
		switch {
		case !ok || !seen:
			if ok {
				index[key] = len(groups)
			}
			groups = append(groups, []int{i})
		case cfgs[groups[g][0]].untraced && !cfgs[i].untraced:
			groups[g] = append([]int{i}, groups[g]...)
		default:
			groups[g] = append(groups[g], i)
		}
	}
	errs := make([]error, len(cfgs))
	forEach(len(groups), workers, func(g int) {
		runGroup(cfgs, groups[g], do, errs)
	})
	return len(groups), firstErr(errs)
}

// RunReports returns one report per config, in input order, each byte
// for byte what Run and then Report give for it, from RunEach's runs: a
// group of configs that share a network is one simulation and its
// followers. The runs are untraced: a report reads no series and no
// decision log, so none is kept. A failed slot holds a zero report.
func RunReports(cfgs []Config, workers int) ([]RunReport, error) {
	reps := make([]RunReport, len(cfgs))
	_, err := RunEach(cfgs, workers, func(int) bool { return false }, func(i int, res *Result) {
		reps[i] = res.Report()
	})
	return reps, err
}

// groupKey is what a group's configs share: the config without its name,
// controller parameters, registry, record and tracing, and whether it
// has a registry.
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
	k.cfg.Name, k.cfg.QA, k.cfg.Metrics, k.cfg.record, k.cfg.untraced = "", core.Params{}, nil, nil, false
	return k, true
}

// runGroup simulates the group's first config with the others following
// it. A record asked for by any config of the group is the simulated
// run's.
func runGroup(cfgs []Config, group []int, do func(int, *Result), errs []error) {
	lead := cfgs[group[0]]
	var fols []*follower
	recorded := lead.record != nil
	for _, i := range group[1:] {
		f, err := newFollower(i, cfgs[i])
		if err != nil {
			errs[i] = err
			continue
		}
		fols = append(fols, f)
		recorded = recorded || cfgs[i].record != nil
	}
	if recorded && lead.record == nil {
		lead.record = new([][]flow.Input)
	}
	res, err := run(lead, fols)
	if err != nil {
		errs[group[0]] = err
		if len(group) > 1 {
			runGroup(cfgs, group[1:], do, errs)
		}
		return
	}
	do(group[0], res)
	for _, f := range fols {
		if rec := cfgs[f.i].record; rec != nil {
			*rec = *lead.record
		}
		do(f.i, f.res)
	}
}

// follower is config i of a group, which follows the group's simulated
// run: one fresh controller per QA flow behind a flow.Replayer, and the
// Result they end in.
type follower struct {
	i    int
	res  *Result
	reps []*flow.Replayer // one per QA flow, in flow order
}

// newFollower normalizes cfg, config i, and builds its controllers,
// instrumented on a private registry if cfg has one.
func newFollower(i int, cfg Config) (*follower, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	f := &follower{i: i, res: &Result{Cfg: cfg, Series: trace.NewSet()}}
	ctrls := make([]*core.Controller, cfg.NumQA)
	for j := range ctrls {
		c, err := core.NewController(cfg.QA)
		if err != nil {
			return nil, err
		}
		if j == 0 && !cfg.untraced { // the Result's Events
			c.KeepEvents()
		}
		ctrls[j] = c
		f.reps = append(f.reps, flow.NewReplayer(c, cfg.PacketSize))
	}
	if cfg.Metrics != nil {
		f.res.Metrics = metrics.NewRegistry()
		instrumentControllers(f.res.Metrics, ctrls)
	}
	return f, nil
}

// finish completes the follower's Result once lead, the run it
// followed, has ended: unless the follower is untraced, lead's series
// that are not its own join its set, in lead's order; and its first
// controller's delivered quality is read.
func (f *follower) finish(lead *Result) {
	if !f.res.Cfg.untraced {
		for _, name := range lead.Series.Names() {
			if f.res.Series.Get(name) == nil {
				f.res.Series.Add(lead.Series.Get(name))
			}
		}
	}
	f.res.lead = lead
	f.res.readController(f.reps[0].Ctrl)
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
