package core

import (
	"fmt"
	"testing"
)

// BenchmarkPickLayer times one PickLayer and the delivery of its packet
// at steady state, at Kmax 2 and 8, in both phases: fill (rate above
// consumption, so each allocation refresh runs the SendPacket scans up
// to Kmax+extraStates) and drain (rate below, so each refresh builds the
// drain ladder and plans along it). Every packet refreshes: the
// inter-packet gap exceeds planHorizon/5.
func BenchmarkPickLayer(b *testing.B) {
	const C, R, S, pkt = 6_000.0, 20_000.0, 25_000.0, 512
	for _, phase := range []string{"fill", "drain"} {
		for _, kmax := range []int{2, 8} {
			b.Run(fmt.Sprintf("%s/kmax%d", phase, kmax), func(b *testing.B) {
				c, err := NewController(Params{C: C, Kmax: kmax, MaxLayers: 8, StartupSec: 0.2})
				if err != nil {
					b.Fatal(err)
				}
				now := 0.0
				step := func(rate, dt float64) {
					now += dt
					c.OnDelivered(now, c.PickLayer(now, rate, S, pkt), pkt)
				}
				for now < 20 {
					step(R, pkt/R)
				}
				rate, dt := R, pkt/R
				if phase == "drain" {
					// Report a rate below consumption but deliver above it:
					// every refresh plans a drain, and the buffers never
					// run dry, so no layer is dropped mid-benchmark.
					naC := float64(c.ActiveLayers()) * C
					rate, dt = 0.9*naC, pkt/(1.1*naC)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(rate, dt)
				}
			})
		}
	}
}
