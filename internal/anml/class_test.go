package anml

import (
	"testing"
	"testing/quick"

	"repro/internal/automata"
)

func mustClass(t *testing.T, expr string) automata.SymbolClass {
	t.Helper()
	c, err := parseClass(expr)
	if err != nil {
		t.Fatalf("parseClass(%q): %v", expr, err)
	}
	return c
}

func TestParseClassBasics(t *testing.T) {
	cases := []struct {
		expr  string
		count int
		has   []byte
		lacks []byte
	}{
		{"a", 1, []byte{'a'}, []byte{'b'}},
		{"*", 256, []byte{0, 255}, nil},
		{".", 255, []byte{'a'}, []byte{'\n'}},
		{`\x41`, 1, []byte{'A'}, []byte{'B'}},
		{`\n`, 1, []byte{'\n'}, []byte{'n'}},
		{`\d`, 10, []byte{'0', '9'}, []byte{'a'}},
		{`\w`, 63, []byte{'a', 'Z', '0', '_'}, []byte{'-'}},
		{`\s`, 6, []byte{' ', '\t'}, []byte{'a'}},
		{`[abc]`, 3, []byte{'a', 'c'}, []byte{'d'}},
		{`[a-f]`, 6, []byte{'a', 'f'}, []byte{'g'}},
		{`[^a]`, 255, []byte{'b', 0}, []byte{'a'}},
		{`[a-c x-z]`, 7, []byte{'b', ' ', 'y'}, []byte{'d'}},
		{`[\x00-\x01]`, 2, []byte{0, 1}, []byte{2}},
		{`[-a]`, 2, []byte{'-', 'a'}, []byte{'b'}},
		{`\*`, 1, []byte{'*'}, []byte{'a'}},
	}
	for _, c := range cases {
		cls := mustClass(t, c.expr)
		if got := cls.Count(); got != c.count {
			t.Errorf("%q: Count = %d, want %d", c.expr, got, c.count)
		}
		for _, b := range c.has {
			if !cls.Match(b) {
				t.Errorf("%q: missing %q", c.expr, b)
			}
		}
		for _, b := range c.lacks {
			if cls.Match(b) {
				t.Errorf("%q: unexpectedly contains %q", c.expr, b)
			}
		}
	}
}

func TestParseClassErrors(t *testing.T) {
	for _, expr := range []string{"", "[abc", `\x4`, `\xg0`, "[z-a]", "ab", `\`} {
		if _, err := parseClass(expr); err == nil {
			t.Errorf("parseClass(%q) succeeded, want error", expr)
		}
	}
}

// Property: formatClass output round-trips through parseClass.
func TestFormatClassRoundTrip(t *testing.T) {
	f := func(c automata.SymbolClass) bool {
		back, err := parseClass(formatClass(c))
		return err == nil && back.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Edge cases quick may not hit.
	for _, c := range []automata.SymbolClass{
		automata.AllClass(), automata.EmptyClass(), automata.SingleClass(0),
		automata.SingleClass(255), automata.RangeClass(10, 200),
	} {
		back, err := parseClass(formatClass(c))
		if err != nil || !back.Equal(c) {
			t.Errorf("round trip failed for %v (encoded %q): %v", c, formatClass(c), err)
		}
	}
}
