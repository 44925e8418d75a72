package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestSeriesStats(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i))
	}
	mn, mnOK := s.Min()
	mx, mxOK := s.Max()
	if s.Len() != 10 || s.Last() != 9 || mx != 9 || !mxOK || mn != 0 || !mnOK {
		t.Fatalf("stats wrong: len=%d last=%v max=%v min=%v", s.Len(), s.Last(), mx, mn)
	}
	if lo, hi, n := s.MinMax(); lo != 0 || hi != 9 || n != 10 {
		t.Fatalf("MinMax = (%v, %v, %d), want (0, 9, 10)", lo, hi, n)
	}
	if s.Avg() != 4.5 {
		t.Fatalf("avg = %v, want 4.5", s.Avg())
	}
	if got := s.AvgBetween(2, 5); got != 3 {
		t.Fatalf("AvgBetween(2,5) = %v, want 3", got)
	}
	if got := s.AvgBetween(100, 200); got != 0 {
		t.Fatalf("empty window avg = %v, want 0", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if _, ok := s.Max(); ok {
		t.Fatal("empty Max reported ok")
	}
	if _, ok := s.Min(); ok {
		t.Fatal("empty Min reported ok")
	}
	if _, _, n := s.MinMax(); n != 0 {
		t.Fatal("empty MinMax reported samples")
	}
	if s.Last() != 0 || s.Avg() != 0 {
		t.Fatal("empty series stats should all be 0")
	}
}

func TestSetCreatesAndOrders(t *testing.T) {
	set := NewSet()
	a := set.Series("a")
	b := set.Series("b")
	if set.Series("a") != a {
		t.Fatal("Series not idempotent")
	}
	if set.Get("b") != b || set.Get("zzz") != nil {
		t.Fatal("Get broken")
	}
	names := set.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestWriteTSVAligned(t *testing.T) {
	set := NewSet()
	for i := 0; i < 3; i++ {
		set.Series("x").Add(float64(i), float64(i)*2)
		set.Series("y").Add(float64(i), float64(i)*3)
	}
	var buf bytes.Buffer
	if err := set.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header+3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "# time\tx\ty") {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != "1.000\t2.000\t3.000" {
		t.Fatalf("row = %q", lines[2])
	}
}

// Two series with the same sample count but different timestamps must
// not be zipped into one table against the first series' time column.
func TestWriteTSVSplitsEqualLengthDifferentClocks(t *testing.T) {
	set := NewSet()
	for i := 0; i < 3; i++ {
		set.Series("early").Add(float64(i), 1)
		set.Series("late").Add(10+float64(i), 2)
	}
	var buf bytes.Buffer
	if err := set.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	lines := strings.Split(out, "\n")
	// Two blocks: header+3 rows each.
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8 (two 4-line blocks):\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "# time\tearly") || strings.Contains(lines[0], "late") {
		t.Fatalf("first header mixed clocks: %q", lines[0])
	}
	if !strings.HasPrefix(lines[4], "# time\tlate") {
		t.Fatalf("second header = %q", lines[4])
	}
	// The late block's rows must carry its own timestamps.
	if !strings.HasPrefix(lines[5], "10.000\t2.000") {
		t.Fatalf("late block misaligned: %q", lines[5])
	}
}

// Series on the same clock still share one table even when another
// equal-length series is present.
func TestWriteTSVGroupsByTimeVector(t *testing.T) {
	set := NewSet()
	for i := 0; i < 4; i++ {
		set.Series("a").Add(float64(i), 1)
		set.Series("b").Add(float64(i), 2)
		set.Series("shifted").Add(float64(i)+0.5, 3)
	}
	var buf bytes.Buffer
	if err := set.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "# time\ta\tb") {
		t.Fatalf("same-clock series split apart: %q", lines[0])
	}
	if strings.Contains(lines[0], "shifted") {
		t.Fatalf("shifted clock joined the wrong table: %q", lines[0])
	}
}

func TestReserveKeepsSamplesAndCapacity(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	s.Reserve(100)
	if s.Len() != 2 || s.T[0] != 1 || s.V[1] != 20 {
		t.Fatalf("Reserve lost samples: %+v", s)
	}
	if cap(s.T) < 100 || cap(s.V) < 100 {
		t.Fatalf("Reserve did not grow capacity: %d/%d", cap(s.T), cap(s.V))
	}
	ct, cv := cap(s.T), cap(s.V)
	s.Reserve(50) // already large enough: must be a no-op
	if cap(s.T) != ct || cap(s.V) != cv {
		t.Fatal("Reserve shrank or reallocated an already-large series")
	}
}

// Appending within a reservation must never allocate — this is what lets
// the scenario sampler run allocation-free at steady state.
func TestReserveAppendsAllocationFree(t *testing.T) {
	const n = 1202
	var s Series
	s.Reserve(n)
	allocs := testing.AllocsPerRun(10, func() {
		s.T, s.V = s.T[:0], s.V[:0]
		for i := 0; i < n; i++ {
			s.Add(float64(i), float64(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("adding %d reserved samples allocated %.0f times per run", n, allocs)
	}
}
