package sim

import "container/heap"

// The binary heap the calendar queue replaced, kept as the reference the
// differential tests compare against: the calendar must pop in exactly
// its order, structure by structure (diffHarness) and under a whole
// Engine (TestEngineSchedulerDifferential builds one on a heapSched).

// eventHeap orders events by time, then the scheduling-time tie key,
// then scheduling sequence — the reference (time, pt, seq) order every
// scheduler must reproduce (see evLess for why this equals the classic
// (time, seq) order on a lone engine).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	return evLess(h[i], h[j])
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// heapSched adapts eventHeap to the scheduler interface.
type heapSched struct{ h eventHeap }

func (s *heapSched) push(ev *event) { heap.Push(&s.h, ev) }
func (s *heapSched) pop() *event {
	if len(s.h) == 0 {
		return nil
	}
	return heap.Pop(&s.h).(*event)
}
func (s *heapSched) peek() *event {
	if len(s.h) == 0 {
		return nil
	}
	return s.h[0]
}
func (s *heapSched) len() int { return len(s.h) }

// schedulers are the structures the A/B benchmarks run, reference first.
var schedulers = []struct {
	name string
	new  func() scheduler
}{
	{"heap", func() scheduler { return &heapSched{} }},
	{"calendar", func() scheduler { return newCalQueue() }},
}

// ReplaySchedHeap is ReplaySched against the reference heap, for the
// recorded-trace benchmark (sched_bench_test.go, package sim_test).
func ReplaySchedHeap(ops []SchedOp) int { return replaySched(&heapSched{}, ops) }
