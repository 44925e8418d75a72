package sim

// scheduler is the engine's pending-event structure. Implementations
// must pop events in exactly ascending (time, pt, seq) order (evLess) —
// the engine's determinism guarantee — and must mark events with idx >= 0 while
// queued and idx == -1 once popped (Timer.Active reads it). Cancelled
// events are deleted lazily: they stay in the structure, still ordered,
// and the engine discards them at pop.
//
// Binaries run one implementation, the calendar queue (calqueue.go). The
// interface is the seam through which the differential tests put the
// binary heap it replaced (heap_test.go) under an Engine.
type scheduler interface {
	push(*event)
	pop() *event
	peek() *event
	len() int
}

// SchedulerKind names a pending-event structure in ReplaySched's
// signature. There is one, SchedCalendar.
type SchedulerKind string

// SchedCalendar is the self-adapting calendar queue (O(1) amortized
// schedule/dequeue, see calqueue.go).
const SchedCalendar SchedulerKind = "calendar"

// SchedOpKind tags one recorded event-queue operation.
type SchedOpKind uint8

const (
	// SchedPush records a schedule at Time.
	SchedPush SchedOpKind = iota
	// SchedPop records a dequeue of the minimum (live or cancelled —
	// lazy deletion means a cancel never restructures the queue, so the
	// push/pop stream alone reproduces the structure's full workload).
	SchedPop
)

// SchedOp is one recorded scheduler operation.
type SchedOp struct {
	Kind SchedOpKind
	Time float64
}

// SchedRecorder captures the engine's calendar operations (delay-line
// hops are not among them) in execution order, so a real run's churn — its exact interleaving of
// schedules and dequeues, with the live depth and time deltas that
// implies — can be replayed against a bare scheduler structure
// (ReplaySched, BenchmarkScheduler). Attach with Engine.RecordSched
// before the run; recording costs one append per operation.
type SchedRecorder struct {
	Ops []SchedOp
}

// RecordSched attaches rec to the engine: every subsequent schedule and
// dequeue appends a SchedOp. Pass nil to stop recording.
func (e *Engine) RecordSched(rec *SchedRecorder) { e.rec = rec }

// ReplaySched replays a recorded operation stream against a fresh
// calendar queue and returns the number of events popped.
//
// Frozen by the benchmark: bench/ calls ReplaySched(SchedCalendar, ops)
// and cannot change in the same PR as this package, so the kind argument
// stays although only SchedCalendar exists; any other kind panics.
func ReplaySched(kind SchedulerKind, ops []SchedOp) int {
	if kind != SchedCalendar {
		panic("sim: unknown scheduler kind " + string(kind))
	}
	return replaySched(newCalQueue(), ops)
}

// replaySched replays ops against s. Events are recycled through a local
// free list exactly like the engine's, so a replay at steady state
// exercises only the structure.
func replaySched(s scheduler, ops []SchedOp) int {
	var seq uint64
	var free []*event
	pops := 0
	for _, op := range ops {
		switch op.Kind {
		case SchedPush:
			seq++
			var ev *event
			if n := len(free); n > 0 {
				ev = free[n-1]
				free[n-1] = nil
				free = free[:n-1]
			} else {
				ev = &event{}
			}
			ev.time, ev.seq = op.Time, seq
			s.push(ev)
		case SchedPop:
			if ev := s.pop(); ev != nil {
				pops++
				if len(free) < maxFreeEvents {
					free = append(free, ev)
				}
			}
		}
	}
	return pops
}
