package main

import (
	"math"
	"testing"
)

// TestSelfTimes checks span self-time arithmetic on a hand-built tree:
//
//	round [0,100)           harness
//	  PickLayer [10,30)     core
//	  WriteBatch [30,80)    netio.batch
//	    (a nested) [40,50)  netio.wire
//	  OnAck [80,95)         rap
//	round [100,140)         harness, no children
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "serve.harness:round", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "core:Controller.PickLayer", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "netio.batch:WriteBatch", StartNs: 30, EndNs: 80, Parent: 0},
		{Name: "netio.wire:EncodeData", StartNs: 40, EndNs: 50, Parent: 2},
		{Name: "rap:Sender.OnAck", StartNs: 80, EndNs: 95, Parent: 0},
		{Name: "serve.harness:round", StartNs: 100, EndNs: 140, Parent: -1},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"serve.harness": 100 - 20 - 50 - 15 + 40,
		"core":          20,
		"netio.batch":   50 - 10,
		"netio.wire":    10,
		"rap":           15,
	}
	for layer, ns := range want {
		if self[layer] != ns {
			t.Errorf("self time of %s = %d ns, want %d", layer, self[layer], ns)
		}
	}
	if len(self) != len(want) {
		t.Errorf("layers %v, want %d of them", self, len(want))
	}
	var sum float64
	for _, s := range shares(self) {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if got := shares(self)["netio.batch"]; math.Abs(got-40.0/140) > 1e-12 {
		t.Errorf("netio.batch share = %v, want %v", got, 40.0/140)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("core:x", -1, 0)
	tr.end(i)
	if i != -1 {
		t.Errorf("nil tracer returned span %d", i)
	}
}
