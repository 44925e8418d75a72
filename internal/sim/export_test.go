package sim

import "fmt"

// SchedCost is what a replayed operation stream cost the calendar queue
// (ReplayCost).
type SchedCost struct {
	Pushes, Pops   uint64
	Walk, Skips    uint64 // list links sorted inserts followed, empty buckets peek stepped over
	Overflow       uint64 // pushes routed through the far-future lane
	Retunes        uint64
	RetuneMoved    uint64 // events relinked by retunes: the population at each, summed
	Buckets        int    // at the end
	WidthUs        float64
	MeanPopulation float64
}

// ReplayCost replays ops against the calendar queue and the reference
// heap side by side. It returns the calendar's cost counters, or an
// error at the first pop on which the two disagree.
func ReplayCost(ops []SchedOp) (SchedCost, error) {
	c, h := newCalQueue(), &heapSched{}
	var cost SchedCost
	var seq, depthSum uint64
	for i, op := range ops {
		retunes := c.retunes
		switch op.Kind {
		case SchedPush:
			seq++
			c.push(&event{time: op.Time, seq: seq})
			h.push(&event{time: op.Time, seq: seq})
		case SchedPop:
			ce, he := c.pop(), h.pop()
			if (ce == nil) != (he == nil) || ce != nil && (ce.time != he.time || ce.seq != he.seq) {
				return cost, fmt.Errorf("op %d: calendar popped %+v, heap %+v", i, ce, he)
			}
			cost.Pops++
		}
		if c.retunes != retunes {
			cost.RetuneMoved += uint64(c.len())
		}
		depthSum += uint64(c.len())
	}
	cost.Pushes, cost.Walk, cost.Skips, cost.Overflow, cost.Retunes = c.pushes, c.walk, c.skips, c.ovPushes, c.retunes
	cost.Buckets, cost.WidthUs = len(c.buckets), c.width*1e6
	cost.MeanPopulation = float64(depthSum) / float64(len(ops))
	return cost, nil
}
