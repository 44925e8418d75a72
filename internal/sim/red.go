package sim

import (
	"math"
	"math/rand"
)

// RED is a Random Early Detection queue (Floyd & Jacobson '93), provided
// as the paper's "future work" bottleneck variant and for the DropTail vs
// RED ablation bench. Averaging and dropping follow the classic gentle-off
// algorithm with byte-mode thresholds expressed in packets of MeanPktSize.
// Packets live in the same ring DropTail uses (fifo).
type RED struct {
	fifo

	limit   int     // hard byte limit
	minTh   float64 // packets
	maxTh   float64 // packets
	maxP    float64 // drop probability at maxTh
	wq      float64 // EWMA weight
	meanPkt int

	rng     *rand.Rand
	avg     float64 // average queue length in packets
	pktCnt  int     // packets since last drop
	dropped int64

	// Idle-period decay (Floyd & Jacobson §2, ns-2's m estimate): while
	// the queue sits empty the average should keep decaying as if m
	// small packets had passed, m = idle time / typical transmission
	// time. now supplies the virtual clock and txTime the per-packet
	// slot; with no clock configured the estimator falls back to
	// EWMA-on-arrival only (the pre-clock behavior).
	now    func() float64
	txTime float64 // seconds to transmit one MeanPktSize packet
	idleAt float64 // virtual time the queue went idle

	// aux, when set, supplies additional shared-buffer occupancy (a
	// hybrid fluid aggregate's backlog) included in the averaged queue
	// length: RED at a mixed bottleneck reacts to the whole queue, not
	// just the packet-level slice of it. Nil outside hybrid runs, where
	// the average is byte-identical to the classic computation.
	aux func() float64
}

// REDConfig holds RED parameters. The thresholds, maximum drop
// probability and averaging weight are the classic ones: minimum 5
// packets, maximum 15, 0.1 at the maximum, weight 0.002.
type REDConfig struct {
	LimitBytes  int // hard capacity
	MeanPktSize int // bytes
	Seed        int64

	// Now, when non-nil, is the virtual clock (sim: eng.Now) used to
	// decay the queue average across idle periods per Floyd-Jacobson.
	// Nil disables idle decay: the average only updates on arrivals.
	Now func() float64
	// LinkRate (bytes/s) sizes the idle decay's packet-slot time
	// (MeanPktSize/LinkRate); required for decay when Now is set.
	LinkRate float64
}

// NewRED returns a RED queue.
func NewRED(cfg REDConfig) *RED {
	if cfg.LimitBytes <= 0 {
		panic("sim: RED limit must be positive")
	}
	if cfg.MeanPktSize <= 0 {
		cfg.MeanPktSize = 512
	}
	q := &RED{
		limit:   cfg.LimitBytes,
		minTh:   5,
		maxTh:   15,
		maxP:    0.1,
		wq:      0.002,
		meanPkt: cfg.MeanPktSize,
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	if cfg.Now != nil && cfg.LinkRate > 0 {
		q.now = cfg.Now
		q.txTime = float64(cfg.MeanPktSize) / cfg.LinkRate
		q.idleAt = q.now() // the queue starts empty
	}
	return q
}

// SetAuxBytes registers a supplementary occupancy source (a hybrid
// fluid backlog) folded into the averaged queue length. Call before
// the simulation starts; nil keeps the classic packet-only average.
func (q *RED) SetAuxBytes(aux func() float64) { q.aux = aux }

// EarlyDropProb returns the current base drop probability for an
// average-size arrival — the Floyd-Jacobson ramp from 0 at the minimum
// threshold to maxP at the maximum, 1 above — without updating the
// average or consuming randomness. A fluid aggregate applies this rate to its
// arrivals each coupling step, so the background sees the same early
// congestion signal the packet flows do.
func (q *RED) EarlyDropProb() float64 {
	switch {
	case q.avg >= q.maxTh:
		return 1
	case q.avg >= q.minTh:
		return q.maxP * (q.avg - q.minTh) / (q.maxTh - q.minTh)
	default:
		return 0
	}
}

// Enqueue implements Queue with early random dropping.
func (q *RED) Enqueue(p *Packet) bool {
	if q.Len() == 0 && q.now != nil && (q.aux == nil || q.aux() == 0) {
		// Arrival to an idle queue: decay the average as if the idle
		// period had been m empty packet slots (avg *= (1-wq)^m)
		// instead of applying a single EWMA step toward zero. A queue
		// holding fluid occupancy is not idle, whatever its packet
		// count.
		if m := (q.now() - q.idleAt) / q.txTime; m > 0 {
			q.avg *= math.Pow(1-q.wq, m)
		}
	} else {
		occ := float64(q.bytes)
		if q.aux != nil {
			occ += q.aux()
		}
		qlen := occ / float64(q.meanPkt)
		q.avg = (1-q.wq)*q.avg + q.wq*qlen
	}

	drop := false
	switch {
	case q.bytes+p.Size > q.limit:
		drop = true // hard limit
	case q.avg >= q.maxTh:
		drop = true
	case q.avg >= q.minTh:
		pb := q.maxP * (q.avg - q.minTh) / (q.maxTh - q.minTh)
		pa := pb / (1 - float64(q.pktCnt)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if q.rng.Float64() < pa {
			drop = true
		} else {
			q.pktCnt++
		}
	default:
		q.pktCnt = 0
	}
	if drop {
		q.dropped++
		q.pktCnt = 0
		return false
	}
	q.push(p)
	return true
}

// Dequeue implements Queue.
func (q *RED) Dequeue() *Packet {
	p := q.fifo.Dequeue()
	if p != nil && q.Len() == 0 && q.now != nil {
		q.idleAt = q.now()
	}
	return p
}

// Drops implements Queue.
func (q *RED) Drops() int64 { return q.dropped }
