package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
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

// Series on one clock store only their values; each one's T is a view of
// the column's first Len() entries, and appending to that view leaves
// the column as it was.
func TestClockSharesOneColumn(t *testing.T) {
	set := NewSet()
	c := NewClock(8)
	a, b := set.OnClock("a", c), set.OnClock("b", c)
	if cap(a.V) != 8 || a.clock != c {
		t.Fatalf("OnClock: cap V = %d, bound %v", cap(a.V), a.clock == c)
	}
	for i := 0; i < 3; i++ {
		now := 0.5 * float64(i)
		c.Add(now)
		a.Add(now, float64(i))
		b.Add(now, -float64(i))
	}
	if a.Len() != 3 || len(a.V) != 3 || &a.T[0] != &c.t[0] || &b.T[0] != &c.t[0] || a.T[2] != 1 {
		t.Fatalf("a = %+v, b = %+v, column %v", a, b, c.t)
	}
	_ = append(a.T, 99)
	c.Add(1.5)
	if c.t[3] != 1.5 {
		t.Fatalf("an append to a bound series' T wrote the column: %v", c.t)
	}
	a.Reserve(64)
	if cap(a.V) < 64 || &b.T[0] != &c.t[0] {
		t.Fatal("Reserve on a bound series")
	}
	// b is one sample behind the column: its next value takes tick 3.
	b.Add(1.5, 7)
	if b.Len() != 4 || b.T[3] != 1.5 || a.Len() != 3 {
		t.Fatalf("a = %+v, b = %+v", a, b)
	}
	var buf bytes.Buffer
	if err := set.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "# time\ta\n0.000\t0.000\n0.500\t1.000\n1.000\t2.000\n# time\tb\n0.000\t-0.000\n0.500\t-1.000\n1.000\t-2.000\n1.500\t7.000\n"; buf.String() != want {
		t.Fatalf("TSV:\n%s", buf.String())
	}
}

// A bound series takes its times from the clock: an Add at any other time
// than the column's next one is a sampler bug, and panics.
func TestClockRejectsOffClockAdd(t *testing.T) {
	c := NewClock(4)
	s := NewSet().OnClock("s", c)
	c.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Add at 2 on a clock at 1 did not panic")
		}
	}()
	s.Add(2, 0)
}

// Adding values on a reserved clock allocates nothing.
func TestClockAddsAllocationFree(t *testing.T) {
	const n = 1202
	c := NewClock(n)
	set := NewSet()
	a, b := set.OnClock("a", c), set.OnClock("b", c)
	allocs := testing.AllocsPerRun(10, func() {
		c.t, a.V, b.V = c.t[:0], a.V[:0], b.V[:0]
		for i := 0; i < n; i++ {
			now := float64(i)
			c.Add(now)
			a.Add(now, now)
			b.Add(now, -now)
		}
	})
	if allocs != 0 {
		t.Fatalf("adding %d samples to two bound series allocated %.0f times per run", n, allocs)
	}
}

// An alias shares its source's samples under another name; later adds
// to either leave the other as it was.
func TestAliasSharesSamples(t *testing.T) {
	var s Series
	s.Reserve(8)
	s.Add(1, 10)
	s.Add(2, 20)
	a := s.Alias("a")
	if a.Name != "a" || a.Len() != 2 || &a.T[0] != &s.T[0] || &a.V[0] != &s.V[0] {
		t.Fatalf("alias = %+v", a)
	}
	s.Add(3, 30)
	a.Add(4, 40)
	if a.Len() != 3 || a.V[2] != 40 || s.V[2] != 30 || s.T[2] != 3 {
		t.Fatalf("source %+v, alias %+v", s, *a)
	}
}

// writeTSVRef is WriteTSV as it was written with fmt, one call per cell:
// the reference the strconv writer must match byte for byte.
func writeTSVRef(set *Set, w io.Writer) error {
	if len(set.order) == 0 {
		return nil
	}
	groups := map[tsvKey][]*Series{}
	var keys []tsvKey
	for _, s := range set.order {
		k := seriesKey(s)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], s)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.n != b.n {
			return a.n < b.n
		}
		if a.first != b.first {
			return a.first < b.first
		}
		return a.last < b.last
	})
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(w, "# time")
		for _, s := range g {
			fmt.Fprintf(w, "\t%s", s.Name)
		}
		fmt.Fprintln(w)
		for i := 0; i < k.n; i++ {
			fmt.Fprintf(w, "%.3f", g[0].T[i])
			for _, s := range g {
				fmt.Fprintf(w, "\t%.3f", s.V[i])
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// WriteTSV formats each cell with strconv, not fmt: every special value,
// every halfway value at the third decimal and random ones of every
// magnitude must print as fmt's "%.3f" does, cell by cell and as whole
// tables.
func TestWriteTSVMatchesSprintf(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e300, -1e300, math.MaxFloat64, 5e-324, -5e-324, 0.0004999, 0.9995, -0.9995}
	for x := 0.0; x < 20; x++ {
		for _, frac := range []float64{0.0005, 0.0015, 0.0025, 0.1235, 0.9995} {
			vals = append(vals, x+frac, -(x + frac), 1000*x+frac)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Ldexp(rng.Float64()-0.5, rng.Intn(120)-60))
	}
	for _, v := range vals {
		if got, want := string(strconv.AppendFloat(nil, v, 'f', 3, 64)), fmt.Sprintf("%.3f", v); got != want {
			t.Fatalf("%v: strconv %q, fmt %q", v, got, want)
		}
	}
	set := NewSet()
	c := NewClock(len(vals))
	bound, neg := set.OnClock("bound", c), set.OnClock("neg", c)
	own, short := set.Series("own"), set.Series("short")
	for i, v := range vals {
		now := 0.1 * float64(i)
		c.Add(now)
		bound.Add(now, v)
		neg.Add(now, -v)
		own.Add(v, v) // its own clock: the special values as times too
		if i%3 == 0 {
			short.Add(now, v)
		}
	}
	var got, want bytes.Buffer
	if err := set.WriteTSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := writeTSVRef(set, &want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteTSV differs from the fmt reference:\n%.600s\nreference:\n%.600s", got.String(), want.String())
	}
	if n := strings.Count(got.String(), "# time"); n != 3 {
		t.Fatalf("%d blocks, want 3", n)
	}
}
