package scenario

import (
	"testing"

	"qav/internal/metrics"
	"qav/internal/transport"
)

// TestDelayFairWithTCP shares a dumbbell between one delay-based flow
// and one Sack-TCP flow. The classic failure mode of delay-based
// control is starvation — TCP fills the queue, the delay flow keeps
// seeing "overuse" and backs off forever. The adaptive threshold is
// supposed to prevent that; require the delay flow to keep a usable
// share and the pair to use the link.
func TestDelayFairWithTCP(t *testing.T) {
	cfg := Config{
		Name:           "delay-vs-tcp",
		Transport:      transport.KindDelay,
		BottleneckRate: 100_000,
		LinkDelay:      0.010,
		AccessDelay:    0.005,
		QueueBytes:     12_000,
		PacketSize:     512,
		NumRAP:         1, // the cross-traffic slot runs the configured backend
		NumTCP:         1,
		Duration:       30,
		SampleInterval: 0.1,
	}
	res := runChecked(t, cfg)
	capacity := cfg.BottleneckRate * cfg.Duration
	delayBytes := float64(res.RAPSrcs[0].RecvBytes)
	tcpBytes := float64(res.TCPSrcs[0].GoodputBytes())
	if delayBytes < 0.15*capacity {
		t.Errorf("delay flow starved: %.0f bytes, %.1f%% of capacity",
			delayBytes, 100*delayBytes/capacity)
	}
	if tcpBytes < 0.15*capacity {
		t.Errorf("tcp flow starved: %.0f bytes, %.1f%% of capacity",
			tcpBytes, 100*tcpBytes/capacity)
	}
	if util := (delayBytes + tcpBytes) / capacity; util < 0.6 {
		t.Errorf("pair used only %.1f%% of the link", 100*util)
	}
}

// TestDelayLosesLessThanRAP is the backend's reason to exist, measured
// end to end: on the Fig 1 single-flow bottleneck, reacting to queue
// growth instead of drops must lose fewer packets than RAP while still
// using the link.
func TestDelayLosesLessThanRAP(t *testing.T) {
	lost := func(kind transport.Kind) (int64, float64) {
		cfg := MustPreset("SingleRAP", WithTransport(kind))
		res := runChecked(t, cfg)
		c := res.RAPSrcs[0].Tr.Counters()
		return c.Lost, float64(res.RAPSrcs[0].RecvBytes) / (cfg.BottleneckRate * cfg.Duration)
	}
	rapLost, _ := lost(transport.KindRAP)
	delayLost, delayUtil := lost(transport.KindDelay)
	if delayLost >= rapLost {
		t.Errorf("delay lost %d packets, rap %d; delay should lose less", delayLost, rapLost)
	}
	if delayUtil < 0.5 {
		t.Errorf("delay used only %.1f%% of the lone bottleneck", 100*delayUtil)
	}
}

// TestDelayReportNamespaces pins the A/B observability contract: a
// delay-backend run self-identifies in the report header and publishes
// its metrics under the backend's namespaces (qa.delay.* for the QA
// flow, delay.* for cross traffic, plus the backend-specific overuse
// counter), leaving no collision with a rap run sharing the registry.
func TestDelayReportNamespaces(t *testing.T) {
	cfg := MustPreset("T1", WithTransport(transport.KindDelay))
	cfg.Duration = 15
	cfg.Metrics = metrics.NewRegistry()
	res := runChecked(t, cfg)
	rep := res.Report()
	if rep.Transport != "delay" {
		t.Fatalf("report transport %q, want delay", rep.Transport)
	}
	if rep.Name != "T1(Kmax=2)+delay" {
		t.Fatalf("config name %q: the backend suffix keeps A/B legs distinguishable", rep.Name)
	}
	snap := rep.Metrics
	for _, name := range []string{
		"qa.delay.sent", "qa.delay.acked", "qa.delay.backoffs", "qa.delay.overuse",
		"delay.sent", "delay.acked", "delay.overuse",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from delay-backend report", name)
		}
	}
	for _, name := range []string{"qa.delay.srtt", "qa.delay.ackgap", "delay.srtt"} {
		if _, ok := snap.Histograms[name]; !ok {
			t.Errorf("histogram %q missing from delay-backend report", name)
		}
	}
	for _, name := range []string{"qa.rap.sent", "rap.sent"} {
		if _, ok := snap.Counters[name]; ok {
			t.Errorf("counter %q present in a delay-backend run: namespaces leaked", name)
		}
	}
	if snap.Counters["qa.delay.sent"] == 0 {
		t.Error("QA flow sent nothing over the delay backend")
	}
}

// TestFineGrainRequiresRAP: the fine-grain inter-layer spreading is a
// RAP-internal mechanism; configs combining it with another backend
// must be rejected, not silently ignored.
func TestFineGrainRequiresRAP(t *testing.T) {
	cfg := MustPreset("T1", WithTransport(transport.KindDelay))
	cfg.FineGrainRAP = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("FineGrainRAP + delay backend did not error")
	}
	if _, err := Preset("T1", WithTransport(transport.Kind("bogus"))); err == nil {
		t.Fatal("bogus transport kind accepted by Preset")
	}
}
