package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"qav/internal/metrics"
)

// reportConfigs builds a small instrumented sweep: every config carries
// its own fresh registry, the arrangement qasim -report uses so that
// reports cannot depend on worker scheduling.
func reportConfigs() []Config {
	var cfgs []Config
	for _, kmax := range []int{2, 4} {
		cfg := MustPreset("T1", WithKmax(kmax))
		cfg.Duration = 15
		cfg.Metrics = metrics.NewRegistry()
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func marshalReports(t *testing.T, results []*Result) []byte {
	t.Helper()
	reps := make([]RunReport, len(results))
	for i, res := range results {
		reps[i] = res.Report()
	}
	var buf bytes.Buffer
	if err := WriteReports(&buf, reps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The -report artifact must be byte-identical across repeated runs and
// across worker counts: this is the golden determinism guarantee for
// machine-diffable sweeps.
func TestReportDeterministicAcrossRunsAndWorkers(t *testing.T) {
	runWith := func(workers int) []byte {
		results := runAllChecked(t, reportConfigs(), workers)
		return marshalReports(t, results)
	}
	want := runWith(1)
	for _, workers := range []int{1, 2, 4} {
		if got := runWith(workers); !bytes.Equal(want, got) {
			t.Fatalf("report JSON differs with %d workers:\n%s\nvs\n%s", workers, want, got)
		}
	}
}

// The report must carry every layer's metrics under stable names — the
// schema qasim -report documents: engine, queue (with histogram
// quantiles), RAP and TCP transports, and the QA controller.
func TestReportContainsAllLayers(t *testing.T) {
	cfg := MustPreset("T1", WithKmax(2))
	cfg.Duration = 15
	cfg.Metrics = metrics.NewRegistry()
	res := runChecked(t, cfg)
	rep := res.Report()
	if rep.Name != cfg.Name || rep.PlayedSec <= 0 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.Transport != "rap" {
		t.Fatalf("report transport %q, want rap (the preset default)", rep.Transport)
	}
	snap := rep.Metrics
	for _, name := range []string{
		"sim.events.scheduled", "sim.events.executed",
		"sim.sched.resizes", "sim.sched.overflow",
		"queue.offered", "link.tx.packets",
		"rap.sent", "rap.acked", "tcp.sent", "tcp.acked",
		"qa.rap.sent", "qa.adds",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from report", name)
		}
	}
	for _, name := range []string{"sim.sched.depth", "sim.sched.maxdepth", "sim.sched.buckets"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %q missing from report", name)
		}
	}
	if snap.Gauges["sim.sched.maxdepth"] <= 0 {
		t.Error("scheduler peak depth never recorded")
	}
	for _, name := range []string{"queue.delay", "queue.delay.f0", "rap.srtt", "qa.rap.srtt", "tcp.srtt"} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("histogram %q missing from report", name)
			continue
		}
		if name != "queue.delay.f0" && h.Count == 0 {
			t.Errorf("histogram %q recorded nothing", name)
		}
	}
	if snap.Counters["sim.events.executed"] == 0 {
		t.Error("engine executed no events?")
	}
	if snap.Counters["qa.adds"] == 0 {
		t.Error("QA controller added no layers in 15s of T1")
	}

	// Schema stability: the exact top-level JSON keys.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "transport", "config", "played_sec", "stall_sec", "mean_layers", "drops", "fleet", "metrics"} {
		if _, ok := top[key]; !ok {
			t.Errorf("report JSON missing top-level key %q", key)
		}
	}

	// Fleet stats are always emitted, including for the paper presets:
	// T1 is 1 QA + 9 RAP + 10 TCP.
	fs := rep.Fleet
	if fs.Flows != 20 || fs.QAFlows != 1 || fs.RAPFlows != 9 || fs.TCPFlows != 10 {
		t.Errorf("T1 fleet counts wrong: %+v", fs)
	}
	if fs.QAGoodputBps <= 0 || fs.RAPGoodputBps <= 0 || fs.TCPGoodputBps <= 0 {
		t.Errorf("fleet goodput aggregates missing: %+v", fs)
	}
	if fs.JainFairnessTCP <= 0 || fs.JainFairnessTCP > 1 {
		t.Errorf("Jain index out of range (0,1]: %v", fs.JainFairnessTCP)
	}
}

// Sharing one registry across a parallel sweep must be race-free (this
// test is the -race hammer for registration + recording from RunAll
// workers) and must aggregate counters to exactly the sum of the
// per-run counts.
func TestSharedRegistryAcrossParallelRuns(t *testing.T) {
	perRun := func() []int64 {
		var counts []int64
		for _, kmax := range []int{2, 4, 8} {
			cfg := MustPreset("T1", WithKmax(kmax))
			cfg.Duration = 10
			cfg.Metrics = metrics.NewRegistry()
			res := runChecked(t, cfg)
			counts = append(counts, res.Metrics.Snapshot().Counters["qa.rap.sent"])
		}
		return counts
	}()

	shared := metrics.NewRegistry()
	var cfgs []Config
	for _, kmax := range []int{2, 4, 8} {
		cfg := MustPreset("T1", WithKmax(kmax))
		cfg.Duration = 10
		cfg.Metrics = shared
		cfgs = append(cfgs, cfg)
	}
	runAllChecked(t, cfgs, len(cfgs))
	var want int64
	for _, n := range perRun {
		want += n
	}
	if got := shared.Snapshot().Counters["qa.rap.sent"]; got != want {
		t.Fatalf("shared registry aggregated %d sent packets, want the per-run sum %d", got, want)
	}
}

// TestJainIndexGuard is the NaN regression: an all-zero TCP goodput
// population must report fairness 0, not 0/0. encoding/json refuses
// NaN, so the old code made the whole -report artifact fail exactly
// when a run collapsed.
func TestJainIndexGuard(t *testing.T) {
	if v := jainIndex(0, 0, 0); v != 0 {
		t.Errorf("jainIndex(0,0,0) = %v, want 0", v)
	}
	if v := jainIndex(0, 0, 5); v != 0 {
		t.Errorf("jainIndex(0,0,5) = %v, want 0", v)
	}
	if v := jainIndex(6, 12, 3); math.Abs(v-1) > 1e-12 {
		t.Errorf("jainIndex over an even split = %v, want 1", v)
	}
}

// TestReportMarshalsWithZeroGoodput runs a fleet config too short for
// any TCP flow to deliver a byte (TCP starts at 0.05 s) and requires
// the report to marshal and the fairness series to stay finite.
func TestReportMarshalsWithZeroGoodput(t *testing.T) {
	cfg := Config{
		Name:           "zero-goodput",
		BottleneckRate: 100_000,
		LinkDelay:      0.010,
		AccessDelay:    0.005,
		QueueBytes:     10_000,
		NumTCP:         3,
		Duration:       0.04,
		SampleInterval: 0.01,
		MaxTraceFlows:  2,
	}
	res := runChecked(t, cfg)
	rep := res.Report()
	if rep.Fleet.JainFairnessTCP != 0 {
		t.Errorf("Jain index over zero goodput = %v, want 0", rep.Fleet.JainFairnessTCP)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("report with zero TCP goodput fails to marshal: %v", err)
	}
	jain := res.Series.Get("fleet.jain.tcp")
	if jain == nil || jain.Len() == 0 {
		t.Fatal("fleet.jain.tcp series missing")
	}
	for i, v := range jain.V {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("fleet.jain.tcp sample %d is %v", i, v)
		}
	}
}
