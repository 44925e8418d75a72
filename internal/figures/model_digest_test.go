package figures

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"qav/internal/metrics"
	"qav/internal/scenario"
)

// Goldens of TestModelDigestEngineCountersRemoved, recorded at commit
// 13df823 (the parent of the calendar-queue tuning change). A change to
// the event scheduler, or to how often a timer is re-armed, must leave
// them alone; a change to the model (a transport, a queue, the
// controller, the report schema) re-records them and says why.
const (
	goldenPaperDigest = "c3eb9eadf2ff8dd4237c64a1742a8855dd68535013cebf5b47ec24fab0153424"
	goldenFleetDigest = "33c47c2ef2ace8e4b74284fb2859cb4d919673355f212d85f24f6d6ce927eb19"
)

// modelDigest hashes reports (and extra) the way the benchmark's
// sim.model_digest does, after deleting every counter and gauge under
// "sim." — the engine's own bookkeeping (events scheduled, calendar
// resizes, packet pool hits), which a faster engine may change while the
// simulated system behaves identically.
func modelDigest(t *testing.T, reps []scenario.RunReport, extra []byte) string {
	t.Helper()
	h := sha256.New()
	for i := range reps {
		rep := reps[i]
		for name := range rep.Metrics.Counters {
			if strings.HasPrefix(name, "sim.") {
				delete(rep.Metrics.Counters, name)
			}
		}
		for name := range rep.Metrics.Gauges {
			if strings.HasPrefix(name, "sim.") {
				delete(rep.Metrics.Gauges, name)
			}
		}
		b, err := json.Marshal(&rep)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	h.Write(extra)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestModelDigestEngineCountersRemoved pins the simulated behaviour of
// the benchmark's two simulator workloads — the Tables 1+2 sweep with
// its rendered tables, and the 1000-flow RED fleet — to a digest that
// ignores the engine's counters, so "the model did not change" is a test
// and not a by-hand diff of two reports.
func TestModelDigestEngineCountersRemoved(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale simulation")
	}
	t.Run("sim_paper", func(t *testing.T) {
		cells, reps, err := TablesSweep([]int{2, 3, 4, 5, 8}, DefaultScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		var tables bytes.Buffer
		if err := RenderTables(&tables, cells); err != nil {
			t.Fatal(err)
		}
		if got := modelDigest(t, reps, tables.Bytes()); got != goldenPaperDigest {
			t.Fatalf("model digest %s, want %s", got, goldenPaperDigest)
		}
	})
	t.Run("sim_fleet", func(t *testing.T) {
		cfg := scenario.MustPreset("Fleet", scenario.WithFlows(1000), scenario.WithScale(DefaultScale))
		cfg.UseRED = true
		cfg.REDSeed = 1
		cfg.Duration = 5
		cfg.Metrics = metrics.NewRegistry()
		res, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := modelDigest(t, []scenario.RunReport{res.Report()}, nil); got != goldenFleetDigest {
			t.Fatalf("model digest %s, want %s", got, goldenFleetDigest)
		}
	})
}
