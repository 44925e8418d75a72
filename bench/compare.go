package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// compare reads two result files written with --out (the same workloads
// and code, run twice) and prints, for every workload and metric, the
// two values, their relative difference and the bound. It returns an
// error if any end-to-end metric differs by more than its bound in
// either direction (a second set 40% better shows the same instability
// as one 40% worse), if the two files do not hold the same workloads and
// metrics, or if a sim workload's model statistics differ at all: the
// same code on the same seed must simulate the same thing.
func compare(fileA, fileB string) error {
	load := func(path string) (map[string]result, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var m map[string]result
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return m, nil
	}
	a, err := load(fileA)
	if err != nil {
		return err
	}
	b, err := load(fileB)
	if err != nil {
		return err
	}
	bounds := map[string]metricDef{}
	for _, d := range endToEnd {
		bounds[d.Name] = d
	}
	var names []string
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)
	if len(a) != len(b) {
		return fmt.Errorf("%s has %d workloads, %s has %d", fileA, len(a), fileB, len(b))
	}
	apart := 0
	fmt.Printf("%-14s %-40s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range names {
		rb, ok := b[w]
		if !ok {
			return fmt.Errorf("%s: workload %s missing", fileB, w)
		}
		if len(a[w].Metrics) != len(rb.Metrics) {
			return fmt.Errorf("%s: %s has %d metrics, %s has %d", w, fileA, len(a[w].Metrics), fileB, len(rb.Metrics))
		}
		var metrics []string
		for m := range a[w].Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			mb, ok := rb.Metrics[m]
			if !ok {
				return fmt.Errorf("%s: %s: metric %s missing", fileB, w, m)
			}
			va, vb := a[w].Metrics[m].Value, mb.Value
			diff := 0.0
			if va != vb {
				diff = (vb - va) / math.Abs(va) // ±Inf from a zero first value
			}
			verdict := "       "
			if d, bounded := bounds[m]; bounded {
				verdict = fmt.Sprintf("%7.2f", d.Bound)
				if math.Abs(diff) > d.Bound {
					verdict += "  APART"
					apart++
				}
			}
			if modelStat(w, m) && va != vb {
				verdict += "  MODEL DIFFERS"
				apart++
			}
			fmt.Printf("%-14s %-40s %14.6g %14.6g %+8.2f%% %s\n", w, m, va, vb, 100*diff, verdict)
		}
	}
	if apart > 0 {
		return fmt.Errorf("%d metrics differ by more than they may between %s and %s", apart, fileA, fileB)
	}
	return nil
}

// modelStat reports whether metric m of workload w is a statistic of
// the simulated model, fixed by the code and the seed.
func modelStat(w, m string) bool {
	if wl := findWorkload(w); wl == nil || wl.sim == "" {
		return false
	}
	if m == "pkts_per_s" || m == "layers_mean" {
		return true
	}
	for _, d := range perLayer {
		if d.Name == m {
			return d.From == fromSimModel
		}
	}
	return false
}
