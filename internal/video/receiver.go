package video

import (
	"fmt"
	"math"
)

// Config parameterizes a playout receiver.
type Config struct {
	// C is the per-layer consumption rate, bytes/s (linear spacing, as
	// in the paper's analysis).
	C float64
	// MaxLayers bounds the layer count.
	MaxLayers int
	// StartupBytes of base-layer data must be contiguous from offset 0
	// before playback starts.
	StartupBytes int64
}

// Stats summarizes delivered playback quality.
type Stats struct {
	// PlayedSec is wall time spent with playback running.
	PlayedSec float64
	// StallSec is wall time spent stalled on base-layer data.
	StallSec float64
	// Stalls counts stall events.
	Stalls int
	// DecodableLayerSec integrates the decodable layer count over
	// played time (the viewer-facing quality integral).
	DecodableLayerSec float64
	// LayerPlayedSec is the per-layer decodable playback time.
	LayerPlayedSec []float64
	// LayerGapSec is per-layer time the layer had undecodable slots
	// while playback ran (its own or a lower layer's data missing).
	LayerGapSec []float64
}

// Receiver reconstructs per-layer byte timelines from deliveries and
// advances a playout clock against them, enforcing the hierarchical
// decoding constraint. It is the measurement model only — it makes no
// adaptation decisions (those are the sender's, per the paper).
type Receiver struct {
	cfg Config
	// slotBytes quantizes decodability accounting: a "frame" worth of
	// bytes, 100 ms of data (C/10, at least 1).
	slotBytes int64
	layers    []IntervalSet
	playing   bool
	stalled   bool
	playPos   int64   // byte offset of the playout point within each layer
	lastT     float64 // last Advance time
	carryT    float64 // sub-slot playback time carried between Advances
	stats     Stats
}

// NewReceiver returns a playout receiver.
func NewReceiver(cfg Config) (*Receiver, error) {
	if !(cfg.C > 0) || math.IsInf(cfg.C, 1) {
		return nil, fmt.Errorf("video: C must be positive and finite, got %v", cfg.C)
	}
	if cfg.MaxLayers <= 0 {
		cfg.MaxLayers = 8
	}
	if cfg.StartupBytes <= 0 {
		cfg.StartupBytes = int64(cfg.C) // one second
	}
	slot := int64(cfg.C / 10)
	if slot < 1 {
		slot = 1
	}
	return &Receiver{
		cfg:       cfg,
		slotBytes: slot,
		layers:    make([]IntervalSet, cfg.MaxLayers),
		stats: Stats{
			LayerPlayedSec: make([]float64, cfg.MaxLayers),
			LayerGapSec:    make([]float64, cfg.MaxLayers),
		},
	}, nil
}

// Deliver records n bytes of layer data at byte offset off, received at
// time now, and returns how many of them were new (0 for a duplicate).
// Out-of-range layers are dropped silently (future codec levels this
// receiver cannot decode).
func (r *Receiver) Deliver(now float64, layer int, off, n int64) (added int64) {
	if layer < 0 || layer >= len(r.layers) || n <= 0 {
		return 0
	}
	r.Advance(now)
	return r.layers[layer].Add(off, off+n)
}

// Layers returns how many layers the receiver decodes (Config.MaxLayers).
func (r *Receiver) Layers() int { return len(r.layers) }

// Playing reports whether playback has started and is not stalled.
func (r *Receiver) Playing() bool { return r.playing && !r.stalled }

// PlayPos returns the playout byte offset.
func (r *Receiver) PlayPos() int64 { return r.playPos }

// BufferedBytes returns contiguously buffered-ahead bytes for layer i
// (from the playout point to the first hole).
func (r *Receiver) BufferedBytes(layer int) int64 {
	if layer < 0 || layer >= len(r.layers) {
		return 0
	}
	gapStart, _, ok := r.layers[layer].FirstGap(r.playPos, r.layers[layer].Max())
	if !ok {
		return r.layers[layer].Max() - r.playPos
	}
	if gapStart <= r.playPos {
		return 0
	}
	return gapStart - r.playPos
}

// Stats returns a snapshot of the quality statistics (Advance first for
// up-to-date numbers).
func (r *Receiver) Stats() Stats {
	out := r.stats
	out.LayerPlayedSec = append([]float64(nil), r.stats.LayerPlayedSec...)
	out.LayerGapSec = append([]float64(nil), r.stats.LayerGapSec...)
	return out
}

// Advance moves the playout clock to now, consuming slot by slot.
func (r *Receiver) Advance(now float64) {
	if now <= r.lastT {
		return
	}
	dt := now - r.lastT
	r.lastT = now

	if !r.playing {
		if r.layers[0].Contains(0, r.cfg.StartupBytes) {
			r.playing = true
		} else {
			return
		}
	}
	if r.stalled {
		r.stats.StallSec += dt
		// Resume once half the startup buffering has arrived beyond the
		// playout point (lost bytes never arrive; holes are skipped as
		// glitches below, so the frontier is what matters).
		if r.layers[0].Max() >= r.playPos+r.cfg.StartupBytes/2 {
			r.stalled = false
		}
		return
	}

	// Consume whole slots; the fractional remainder waits for the next
	// Advance (slot duration is slotBytes/C seconds).
	slotSec := float64(r.slotBytes) / r.cfg.C
	pending := dt + r.carryT
	for pending >= slotSec {
		pending -= slotSec
		baseOK := r.layers[0].Contains(r.playPos, r.playPos+r.slotBytes)
		if !baseOK && r.layers[0].Max() < r.playPos+r.slotBytes {
			// The playout point has reached the data frontier: a true
			// buffer underflow. Stall and wait for more data.
			r.stalled = true
			r.stats.Stalls++
			r.stats.StallSec += pending
			r.carryT = 0
			return
		}
		// Either the slot is decodable or it has a permanent loss hole:
		// a real decoder conceals the error and playback continues.
		r.stats.PlayedSec += slotSec
		decodable := 0
		if baseOK {
			for l := 0; l < len(r.layers); l++ {
				if r.layers[l].Contains(r.playPos, r.playPos+r.slotBytes) && decodable == l {
					decodable = l + 1
					r.stats.LayerPlayedSec[l] += slotSec
				} else if r.layers[l].Len() > 0 {
					// The layer exists but this slot is not decodable
					// (its own or a lower layer's hole).
					r.stats.LayerGapSec[l] += slotSec
				}
			}
		} else {
			for l := 0; l < len(r.layers); l++ {
				if r.layers[l].Len() > 0 {
					r.stats.LayerGapSec[l] += slotSec
				}
			}
		}
		r.stats.DecodableLayerSec += slotSec * float64(decodable)
		r.playPos += r.slotBytes
	}
	r.carryT = pending
}

// FrontierOf returns the highest received byte offset of layer i's
// stream (0 when nothing arrived).
func (r *Receiver) FrontierOf(layer int) int64 {
	if layer < 0 || layer >= len(r.layers) {
		return 0
	}
	return r.layers[layer].Max()
}

// FirstHole returns the first missing byte range of layer i's stream at
// or after the playout point and strictly before maxExclusive — the
// next candidate for selective retransmission.
func (r *Receiver) FirstHole(layer int, maxExclusive int64) (start, end int64, ok bool) {
	if layer < 0 || layer >= len(r.layers) {
		return 0, 0, false
	}
	return r.layers[layer].FirstGap(r.playPos, maxExclusive)
}
