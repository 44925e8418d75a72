package main

import (
	"flag"
	"io"
	"testing"

	"qav/internal/core"
	"qav/internal/scenario"
)

// parse runs qasim's flag-to-config step on args.
func parse(t *testing.T, args ...string) ([]scenario.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("qasim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sf := newSimFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfgs, _, err := sf.configs()
	return cfgs, err
}

// Every flag given over a preset overrides its own field. -cbr-stop and
// -cbr-start used to be read only together with -cbr, so
// "-preset T2 -cbr-stop 35" silently ran T2's 60 s stop.
func TestPresetTakesEveryGivenFlag(t *testing.T) {
	t2 := scenario.MustPreset("T2")
	t1 := scenario.MustPreset("T1")
	for _, tc := range []struct {
		args  []string
		check func(c scenario.Config) bool
	}{
		{[]string{"-preset", "T2", "-cbr-stop", "35"}, func(c scenario.Config) bool {
			return c.CBRStop == 35 && c.CBRStart == 30 && c.CBRRate == t2.CBRRate
		}},
		{[]string{"-preset", "T2", "-cbr-start", "40"}, func(c scenario.Config) bool {
			return c.CBRStart == 40 && c.CBRStop == 60 && c.CBRRate == t2.CBRRate
		}},
		{[]string{"-preset", "T1", "-cbr", "0.25"}, func(c scenario.Config) bool {
			return c.CBRRate == 0.25*t1.BottleneckRate && c.CBRStart == 30 && c.CBRStop == 60
		}},
		{[]string{"-preset", "T1", "-bw", "200000", "-queue", "0.2"}, func(c scenario.Config) bool {
			return c.BottleneckRate == 200_000 && c.QueueBytes == 40_000 && c.NumTCP == t1.NumTCP
		}},
		{[]string{"-preset", "T1", "-bw", "200000"}, func(c scenario.Config) bool {
			return c.BottleneckRate == 200_000 && c.QueueBytes == t1.QueueBytes
		}},
		{[]string{"-preset", "T1", "-dur", "5", "-layers", "3", "-c", "1000"}, func(c scenario.Config) bool {
			return c.Duration == 5 && c.QA == core.Params{C: 1000, Kmax: 2, MaxLayers: 3, StartupSec: 1}
		}},
		{[]string{"-flows", "40", "-dur", "2"}, func(c scenario.Config) bool {
			return c.NumQA == 20 && c.NumTCP == 20 && c.Duration == 2 && c.MaxTraceFlows == 4
		}},
	} {
		cfgs, err := parse(t, tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		if len(cfgs) != 1 || !tc.check(cfgs[0]) {
			t.Errorf("%v: got %+v", tc.args, cfgs)
		}
	}
}

// Without a preset the run is built from every flag, defaults included;
// the CBR window comes only with a burst.
func TestCustomRunFromFlagDefaults(t *testing.T) {
	cfgs, err := parse(t, "-kmax", "2,3")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 {
		t.Fatalf("%d configs for two Kmax values", len(cfgs))
	}
	c := cfgs[1]
	if c.Name != "custom(Kmax=3)" || c.BottleneckRate != 800_000 || c.QueueBytes != 96_000 ||
		c.LinkDelay != 0.01 || c.AccessDelay != 0.005 || c.NumQA != 1 || c.NumTCP != 10 || c.NumRAP != 9 ||
		c.Duration != 60 || c.PacketSize != 512 || c.CBRRate != 0 || c.CBRStart != 0 || c.CBRStop != 0 ||
		c.QA != (core.Params{C: 10_000, Kmax: 3, MaxLayers: 8, StartupSec: 1}) {
		t.Fatalf("custom config %+v", c)
	}
	cfgs, err = parse(t, "-bw", "400000", "-cbr", "0.5")
	if err != nil {
		t.Fatal(err)
	}
	if c := cfgs[0]; c.QueueBytes != 48_000 || c.CBRRate != 200_000 || c.CBRStart != 30 || c.CBRStop != 60 {
		t.Fatalf("custom config with a burst %+v", c)
	}
}

// A non-finite number in any flag that reaches the model is an error
// before anything runs (a NaN bandwidth used to panic in the dumbbell,
// a NaN C to run without ever starting playback).
func TestNonFiniteFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-bw", "NaN"},
		{"-bw", "+Inf"},
		{"-c", "NaN"},
		{"-c", "Inf"},
		{"-rtt", "NaN"},
		{"-queue", "NaN"},
		{"-dur", "NaN"},
		{"-cbr", "NaN"},
		{"-preset", "T2", "-cbr-stop", "NaN"},
		{"-preset", "T1", "-c", "NaN"},
		{"-preset", "Fleet", "-bw", "NaN"},
	} {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
