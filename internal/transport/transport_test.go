package transport

import "testing"

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", KindRAP, false},
		{"rap", KindRAP, false},
		{"delay", KindDelay, false},
		{"greedy", KindGreedy, false},
		{"tcp", "", true},
	} {
		got, err := ParseKind(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseKind(%q) = (%q, %v), want (%q, err=%v)", tc.in, got, err, tc.want, tc.err)
		}
	}
}
