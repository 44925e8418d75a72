// Package metrics is a small, stdlib-only instrumentation layer for the
// per-packet hot paths: counters, snapshot-time gauges, and fixed-bucket
// log-spaced histograms behind a registry with construction-time handle
// registration, so the record path is lock-free, branch-light, and
// allocation-free.
//
// Two recording tiers exist, matching the two kinds of producers in this
// codebase:
//
//   - Handle instruments (Counter, Histogram) are atomics. Recording
//     is one uncontended atomic op, safe from any number of
//     goroutines, and costs nothing in allocations. Use them for
//     event-granularity facts (backoffs, layer changes, RTT samples,
//     recoveries) and anywhere several goroutines share one instrument
//     (the UDP endpoints, cross-run aggregation).
//   - Func instruments (Registry.CounterFunc, Registry.GaugeFunc)
//     publish a value that some single-writer component already
//     maintains as a plain field (the simulator engine's event counts,
//     a queue's byte occupancy). The record path is the component's own
//     plain increment — zero added cost — and the function is only
//     invoked at snapshot time. The caller guarantees snapshots are
//     quiescent or otherwise synchronized with the writer.
//
// Registration (Registry.Counter, Registry.Histogram) is idempotent by
// name: asking twice returns the same handle, so independent components
// that agree on a name share (and aggregate into) one instrument. Multiple Func registrations under one name aggregate
// by summation at snapshot time.
package metrics

import "sync/atomic"

// Counter is a monotonically increasing atomic int64, padded so adjacent
// counters never share a cache line (hot-path increments on two distinct
// counters must not false-share). The zero value is ready to use.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }
