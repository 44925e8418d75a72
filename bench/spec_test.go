package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesSpec holds BENCHMARK.json and spec.go in step and
// both to the contract's own limits.
func TestContractMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRule.MatchString(n) {
			t.Errorf("name %q breaks the name rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(c.Workloads) != len(workloads) || len(c.Workloads) < 2 || len(c.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go (want 2..8, equal)", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their whys differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if (workloads[i].serve == nil) == (workloads[i].sim == "") {
			t.Errorf("workload %s: exactly one of serve and sim must be set", w.Name)
		}
	}

	if len(c.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go (at most 16)", len(c.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range c.EndToEnd {
		name(m.Name)
		if got := (metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, got, endToEnd[i])
		}
		if !unitRule.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %+v breaks the unit, better or bound rule", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}

	if len(c.PerLayer) != len(perLayer) || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (1..128)", len(c.PerLayer), len(perLayer))
	}
	for i, m := range c.PerLayer {
		name(m.Name)
		if got := (metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, From: perLayer[i].From}); got != perLayer[i] {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, got, perLayer[i])
		}
		if !unitRule.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %+v breaks the unit or better rule", m)
		}
	}
}
