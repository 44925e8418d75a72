package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"qav/internal/core"
	"qav/internal/scenario"
	"qav/internal/transport"
)

// simFlags are the flags that shape the simulated runs, defined on one
// FlagSet so that configs can tell which were given explicitly.
type simFlags struct {
	fs *flag.FlagSet

	preset, kmax, transport        *string
	flows, fluid, traceFlows       *int
	bw, rtt, queue                 *float64
	red                            *bool
	ntcp, nrap, layers, pkt        *int
	cbr, cbrStart, cbrStop, c, dur *float64
}

func newSimFlags(fs *flag.FlagSet) *simFlags {
	return &simFlags{
		fs:         fs,
		preset:     fs.String("preset", "", "build the scenario from a preset ("+strings.Join(scenario.Presets(), ", ")+"); explicit flags override its fields"),
		flows:      fs.Int("flows", 0, "total flow population; implies -preset Fleet when no preset is named"),
		fluid:      fs.Int("fluid", 0, "additional background flows modeled as a fluid aggregate (half TCP, half RAP) instead of packet-level"),
		traceFlows: fs.Int("traceflows", -1, "cap per-flow outputs (trace series and queue.delay.f<id> histograms) at N flows per class and emit fleet aggregates (0 = legacy full tracing, -1 = preset default)"),
		bw:         fs.Float64("bw", 800_000, "bottleneck bandwidth, bytes/s"),
		rtt:        fs.Float64("rtt", 0.04, "base round-trip time, seconds"),
		queue:      fs.Float64("queue", 0.12, "bottleneck queue, seconds of bandwidth"),
		red:        fs.Bool("red", false, "use RED instead of DropTail at the bottleneck"),
		ntcp:       fs.Int("tcp", 10, "number of competing Sack-TCP flows"),
		nrap:       fs.Int("rap", 9, "number of competing plain RAP flows"),
		cbr:        fs.Float64("cbr", 0, "CBR burst rate as a fraction of bw (0 = none)"),
		cbrStart:   fs.Float64("cbr-start", 30, "CBR start time, s"),
		cbrStop:    fs.Float64("cbr-stop", 60, "CBR stop time, s"),
		c:          fs.Float64("c", 10_000, "per-layer consumption rate, bytes/s"),
		kmax:       fs.String("kmax", "2", "smoothing factor, or comma-separated list for a sweep"),
		layers:     fs.Int("layers", 8, "maximum encoded layers"),
		dur:        fs.Float64("dur", 60, "simulated duration, seconds"),
		pkt:        fs.Int("pkt", 512, "packet size, bytes"),
		transport:  fs.String("transport", "", "congestion-control backend for QA and cross-traffic flows: rap (default), delay, greedy"),
	}
}

// configs turns the parsed flags into one normalized scenario.Config
// per -kmax value, returned with those values. Every run takes one
// path: the base is the named preset (Fleet when only -flows or -fluid
// is given), or without one a custom setup; then each flag overrides
// its own field. Over a preset only the flags given explicitly
// override; the custom setup is built from every flag, defaults
// included. -bw over a preset without -queue keeps the preset's queue
// in seconds. A CBR burst brings the -cbr-start/-cbr-stop window with
// it, and either end given alone moves just that end.
func (f *simFlags) configs() ([]scenario.Config, []int, error) {
	kmaxes, err := parseKmaxes(*f.kmax)
	if err != nil {
		return nil, nil, err
	}
	trKind, err := transport.ParseKind(*f.transport)
	if err != nil {
		return nil, nil, err
	}
	set := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	presetName := *f.preset
	if presetName == "" && (*f.flows > 0 || *f.fluid > 0) {
		presetName = "Fleet"
	}
	given := func(name string) bool { return presetName == "" || set[name] }

	cfgs := make([]scenario.Config, len(kmaxes))
	for i, kmax := range kmaxes {
		var cfg scenario.Config
		if presetName != "" {
			opts := []scenario.PresetOption{scenario.WithKmax(kmax), scenario.WithFlows(*f.flows), scenario.WithFluidFlows(*f.fluid)}
			if set["transport"] {
				opts = append(opts, scenario.WithTransport(trKind))
			}
			if cfg, err = scenario.Preset(presetName, opts...); err != nil {
				return nil, nil, err
			}
		} else {
			cfg = scenario.Config{
				Name:      fmt.Sprintf("custom(Kmax=%d)", kmax),
				Transport: trKind,
				NumQA:     1,
				QA:        core.Params{Kmax: kmax},
			}
		}
		if given("bw") {
			if presetName != "" && !set["queue"] {
				cfg.QueueBytes = int(float64(cfg.QueueBytes) * *f.bw / cfg.BottleneckRate)
			}
			cfg.BottleneckRate = *f.bw
		}
		if given("rtt") {
			cfg.LinkDelay, cfg.AccessDelay = *f.rtt/4, *f.rtt/8
		}
		if given("queue") {
			cfg.QueueBytes = int(cfg.BottleneckRate * *f.queue)
		}
		if given("red") {
			cfg.UseRED = *f.red
		}
		if given("tcp") {
			cfg.NumTCP = *f.ntcp
		}
		if given("rap") {
			cfg.NumRAP = *f.nrap
		}
		if given("c") {
			cfg.QA.C = *f.c
		}
		if given("layers") {
			cfg.QA.MaxLayers = *f.layers
		}
		if given("dur") {
			cfg.Duration = *f.dur
		}
		if given("pkt") {
			cfg.PacketSize = *f.pkt
		}
		if set["cbr"] || *f.cbr > 0 {
			cfg.CBRRate = *f.cbr * cfg.BottleneckRate
			cfg.CBRStart, cfg.CBRStop = *f.cbrStart, *f.cbrStop
		}
		if set["cbr-start"] {
			cfg.CBRStart = *f.cbrStart
		}
		if set["cbr-stop"] {
			cfg.CBRStop = *f.cbrStop
		}
		if *f.traceFlows >= 0 {
			cfg.MaxTraceFlows = *f.traceFlows
		}
		// Normalize here (Run would do it too) so flag mistakes surface
		// before any simulation starts, with the effective defaults filled
		// in for the report.
		if err := cfg.Normalize(); err != nil {
			return nil, nil, err
		}
		cfgs[i] = cfg
	}
	return cfgs, kmaxes, nil
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
