package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompare: two sets agree only if every end-to-end metric is within
// its bound in both directions, every metric is in both files, and a sim
// workload's model statistics are equal.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, workload string, metrics map[string]float64) string {
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
		for m, v := range metrics {
			res.Metrics[m] = metricValue{Value: v, Unit: "x"}
		}
		b, err := json.Marshal(map[string]result{workload: res})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", "serve_fat", map[string]float64{"cpu_us_per_pkt": 10, "layers_mean": 8})
	for _, c := range []struct {
		name    string
		metrics map[string]float64
		wantErr string // "" = the two agree
	}{
		{"same", map[string]float64{"cpu_us_per_pkt": 10, "layers_mean": 8}, ""},
		{"within", map[string]float64{"cpu_us_per_pkt": 11, "layers_mean": 7.9}, ""},
		{"worse", map[string]float64{"cpu_us_per_pkt": 14, "layers_mean": 8}, "1 metrics differ"},
		{"better", map[string]float64{"cpu_us_per_pkt": 6, "layers_mean": 8}, "1 metrics differ"},
		{"missing", map[string]float64{"cpu_us_per_pkt": 10}, "has 1"},
		{"renamed", map[string]float64{"cpu_us_per_pkt": 10, "layers": 8}, "layers_mean missing"},
	} {
		err := compare(base, write(c.name+".json", "serve_fat", c.metrics))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
	simA := write("sim-a.json", "sim_fleet", map[string]float64{"scenario.tcp_rtos": 3, "sim.ns_per_event": 100})
	simB := write("sim-b.json", "sim_fleet", map[string]float64{"scenario.tcp_rtos": 4, "sim.ns_per_event": 300})
	if err := compare(simA, simA); err != nil {
		t.Errorf("a sim result against itself: %v", err)
	}
	if err := compare(simA, simB); err == nil || !strings.Contains(err.Error(), "1 metrics differ") {
		t.Errorf("model statistic differs, host-dependent one may: error %v", err)
	}
}
