package qav_test

import (
	"fmt"
	"log"
	"strings"

	"qav"
)

// Stream one quality-adaptive flow over a simulated 12 KB/s bottleneck
// and watch the controller add layers, buffer for backoffs, and keep
// playback running.
func Example_quickstart() {
	// A single QA flow, alone on a small link: C = 3 KB/s per layer, so
	// roughly three layers fit the 12 KB/s bottleneck with headroom for
	// buffering.
	cfg := qav.SingleQA(2 /* Kmax */)
	cfg.Duration = 60

	res, err := qav.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("quickstart: 60 simulated seconds of adaptive playback")
	fmt.Printf("  average transmission rate: %8.0f B/s\n", res.Series.Get("qa.rate").Avg())
	fmt.Printf("  average active layers:     %8.2f\n", res.Series.Get("qa.layers").Avg())
	fmt.Printf("  played %.1f s with %.2f s of stalls\n", res.PlayedSec, res.StallSec)
	fmt.Printf("  congestion backoffs absorbed: %d\n", res.Stats.Backoffs)
	fmt.Printf("  layer adds/drops: %d/%d (buffering efficiency %.1f%%)\n",
		res.Stats.Adds, res.Stats.Drops, 100*res.Stats.AvgEfficiency)

	fmt.Println("\n  adaptation timeline:")
	for _, e := range res.Events {
		switch e.Kind {
		case qav.EvPlayStart, qav.EvAddLayer, qav.EvDropLayer, qav.EvStallStart, qav.EvStallEnd:
			fmt.Printf("  %7.2fs  %-7s layer=%d rate=%.0f B/s\n", e.Time, e.Kind, e.Layer, e.Rate)
		}
	}
	// Output:
	// quickstart: 60 simulated seconds of adaptive playback
	//   average transmission rate:    16546 B/s
	//   average active layers:         4.88
	//   played 59.7 s with 0.00 s of stalls
	//   congestion backoffs absorbed: 111
	//   layer adds/drops: 26/22 (buffering efficiency 95.9%)
	//
	//   adaptation timeline:
	//      0.29s  play    layer=0 rate=83023 B/s
	//      0.80s  add     layer=1 rate=15700 B/s
	//      1.65s  add     layer=2 rate=11331 B/s
	//      2.16s  add     layer=3 rate=23976 B/s
	//      2.68s  add     layer=4 rate=20518 B/s
	//      3.57s  add     layer=5 rate=18453 B/s
	//      5.44s  add     layer=6 rate=29088 B/s
	//      6.13s  drop    layer=6 rate=6329 B/s
	//      7.79s  drop    layer=5 rate=6106 B/s
	//      9.43s  drop    layer=4 rate=6255 B/s
	//     10.20s  add     layer=4 rate=23121 B/s
	//     11.05s  drop    layer=4 rate=6116 B/s
	//     11.84s  add     layer=4 rate=23972 B/s
	//     13.67s  add     layer=5 rate=30784 B/s
	//     14.21s  drop    layer=5 rate=6395 B/s
	//     18.60s  add     layer=5 rate=33401 B/s
	//     19.15s  drop    layer=5 rate=6478 B/s
	//     20.14s  add     layer=5 rate=32835 B/s
	//     20.65s  drop    layer=5 rate=7380 B/s
	//     22.48s  drop    layer=4 rate=5259 B/s
	//     23.15s  add     layer=4 rate=24367 B/s
	//     24.01s  drop    layer=4 rate=6473 B/s
	//     24.95s  add     layer=4 rate=24239 B/s
	//     25.67s  drop    layer=4 rate=5228 B/s
	//     26.35s  add     layer=4 rate=22763 B/s
	//     28.87s  drop    layer=4 rate=6018 B/s
	//     29.77s  add     layer=4 rate=25021 B/s
	//     37.64s  add     layer=5 rate=34231 B/s
	//     38.11s  drop    layer=5 rate=6122 B/s
	//     39.10s  add     layer=5 rate=32410 B/s
	//     39.70s  drop    layer=5 rate=6384 B/s
	//     41.36s  drop    layer=4 rate=6167 B/s
	//     42.17s  add     layer=4 rate=24582 B/s
	//     44.07s  add     layer=5 rate=35589 B/s
	//     44.51s  drop    layer=5 rate=6299 B/s
	//     45.64s  add     layer=5 rate=36147 B/s
	//     46.10s  drop    layer=5 rate=6407 B/s
	//     46.10s  drop    layer=4 rate=6407 B/s
	//     47.17s  add     layer=4 rate=29356 B/s
	//     48.97s  add     layer=5 rate=35219 B/s
	//     49.42s  drop    layer=5 rate=6308 B/s
	//     52.37s  add     layer=5 rate=36525 B/s
	//     52.81s  drop    layer=5 rate=6448 B/s
	//     52.81s  drop    layer=4 rate=6448 B/s
	//     53.81s  add     layer=4 rate=25686 B/s
	//     54.60s  drop    layer=4 rate=5807 B/s
	//     55.40s  add     layer=4 rate=22933 B/s
	//     57.95s  drop    layer=4 rate=6503 B/s
	//     58.90s  add     layer=4 rate=28849 B/s
}

// Sweep the paper's smoothing factor Kmax over the shared-bottleneck
// test T1 and show the tradeoff of §3.1: higher Kmax means more receiver
// buffering and fewer disturbing quality changes, at the cost of taking
// longer to reach the best short-term quality.
func Example_smoothing() {
	fmt.Println("smoothing: T1 (QA + 9 RAP + 10 TCP flows) for Kmax in {1, 2, 4, 8}")
	fmt.Printf("%-6s %-16s %-14s %-16s %-12s %s\n",
		"Kmax", "quality changes", "avg layers", "avg buffering", "efficiency", "stalls")

	for _, kmax := range []int{1, 2, 4, 8} {
		cfg := qav.T1(kmax, 8) // paper-axis scale: C = 10 KB/s
		cfg.Duration = 90
		res, err := qav.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		changes := res.Stats.Adds + res.Stats.Drops
		fmt.Printf("%-6d %-16d %-14.2f %8.0f bytes  %9.2f%%  %7.2fs\n",
			kmax,
			changes,
			res.Series.Get("qa.layers").AvgBetween(30, cfg.Duration),
			res.Series.Get("qa.buftotal").AvgBetween(30, cfg.Duration),
			100*res.Stats.AvgEfficiency,
			res.StallSec,
		)
	}
	fmt.Println("\npaper's claim (Fig 12): higher Kmax buffers more and changes quality less.")
	// Output:
	// smoothing: T1 (QA + 9 RAP + 10 TCP flows) for Kmax in {1, 2, 4, 8}
	// Kmax   quality changes  avg layers     avg buffering    efficiency   stalls
	// 1      151              6.11              19447 bytes      99.28%     0.00s
	// 2      66               6.01              28060 bytes      99.36%     0.00s
	// 4      36               6.05              36796 bytes      99.41%     0.00s
	// 8      22               5.97              57360 bytes      99.65%     0.00s
	//
	// paper's claim (Fig 12): higher Kmax buffers more and changes quality less.
}

// Reproduce the paper's Fig 13 experiment: a CBR source at half the
// bottleneck bandwidth switches on at t=30s and off at t=60s; the
// quality-adaptive flow must shed layers quickly, protect the base
// layer, and recover afterwards.
func Example_responsiveness() {
	cfg := qav.T2(4, 8) // Kmax=4, paper-axis scale
	res, err := qav.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	layers := res.Series.Get("qa.layers")
	fmt.Println("responsiveness: CBR burst at half the bottleneck, 30s-60s (Kmax=4)")
	fmt.Printf("  avg layers before burst (15-30s): %.2f\n", layers.AvgBetween(15, 30))
	fmt.Printf("  avg layers during burst (40-60s): %.2f\n", layers.AvgBetween(40, 60))
	fmt.Printf("  avg layers after burst  (75-90s): %.2f\n", layers.AvgBetween(75, 90))
	fmt.Printf("  playback stalls: %.2fs (base layer must never be jeopardized)\n", res.StallSec)

	// A low-fi strip chart of the layer count over time.
	fmt.Println("\n  layers over time (each column = 1s, height = active layers):")
	maxLayers, _ := layers.Max()
	for row := int(maxLayers); row >= 1; row-- {
		var b strings.Builder
		fmt.Fprintf(&b, "  %2d |", row)
		for sec := 0; sec < int(cfg.Duration); sec++ {
			v := layers.AvgBetween(float64(sec), float64(sec+1))
			if v >= float64(row)-0.5 {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
	fmt.Printf("      +%s\n", strings.Repeat("-", int(cfg.Duration)))
	fmt.Println("       0s        burst on (30s)      burst off (60s)      90s")
	// Output:
	// responsiveness: CBR burst at half the bottleneck, 30s-60s (Kmax=4)
	//   avg layers before burst (15-30s): 6.25
	//   avg layers during burst (40-60s): 3.54
	//   avg layers after burst  (75-90s): 6.45
	//   playback stalls: 0.00s (base layer must never be jeopardized)
	//
	//   layers over time (each column = 1s, height = active layers):
	//    8 |     ########          ##                                            ####        ####
	//    7 |    #############     ####                                          ######      ######
	//    6 |   ###############   #########                                   ########## ############
	//    5 |  #############################                               ############################
	//    4 |  ##############################  ###   #############      ###############################
	//    3 | #######################################################  ################################
	//    2 | #########################################################################################
	//    1 |##########################################################################################
	//       +------------------------------------------------------------------------------------------
	//        0s        burst on (30s)      burst off (60s)      90s
}
