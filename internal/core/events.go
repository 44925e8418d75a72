package core

// EventKind classifies controller events.
type EventKind int

// Controller event kinds.
const (
	// EvPlayStart marks the beginning of playback (startup buffering met).
	EvPlayStart EventKind = iota
	// EvAddLayer marks a layer addition (§2.1 conditions satisfied).
	EvAddLayer
	// EvDropLayer marks a layer drop (backoff rule or critical situation).
	EvDropLayer
	// EvBackoff records a congestion backoff seen by the controller.
	EvBackoff
	// EvStallStart marks a base-layer underflow pausing playback.
	EvStallStart
	// EvStallEnd marks playback resuming after a stall.
	EvStallEnd
)

func (k EventKind) String() string {
	switch k {
	case EvPlayStart:
		return "play"
	case EvAddLayer:
		return "add"
	case EvDropLayer:
		return "drop"
	case EvBackoff:
		return "backoff"
	case EvStallStart:
		return "stall"
	case EvStallEnd:
		return "resume"
	default:
		return "?"
	}
}

// Event is one controller decision or observation, the raw material for
// the paper's Table 1 (buffering efficiency) and Table 2 (drops due to
// poor buffer distribution).
type Event struct {
	Time  float64
	Kind  EventKind
	Layer int // layer index affected (add/drop events)
	Rate  float64

	// Drop-event details.
	BufDrop  float64 // buffering held by the dropped layer
	BufTotal float64 // total buffering across all layers just before drop
	// PoorDist marks a drop that occurred although total buffering was
	// sufficient for recovery — the distribution made it unusable.
	PoorDist bool
	// Critical marks a §2.2 "critical situation" drop (mid-drain), as
	// opposed to the immediate post-backoff rule.
	Critical bool
}

// DropStats summarizes a controller's decisions, the raw material for
// the paper's Tables 1 and 2 (Controller.Stats).
type DropStats struct {
	Drops int // layer-drop events
	// AvgEfficiency is the mean of e = (buf_total - buf_drop)/buf_total
	// over drop events (Table 1); 1.0 when no buffered data was wasted.
	AvgEfficiency float64
	// PoorDistPct is the percentage of drops that happened although the
	// total buffering would have sufficed for recovery (Table 2).
	PoorDistPct float64
	Adds        int // layer additions
	Backoffs    int // congestion backoffs
	Stalls      int // base-layer underflow events
}
