package anml

import (
	"fmt"
	"strings"

	"repro/internal/automata"
)

// parseClass parses an STE's symbol-set attribute: one symbol-class
// expression, a PCRE character class (§II-B), returned as its class.
// Supported forms:
//
//   - every symbol (the paper's "*" state)
//     .            every symbol except \n (PCRE dot)
//     a            a literal byte
//     \xHH         hex escape
//     \n \r \t \0 \\ \* \. \[ \] \- \^   escapes
//     \d \w \s     digit, word, whitespace classes
//     [...]        set of literals and lo-hi ranges, ^ negates
func parseClass(expr string) (automata.SymbolClass, error) {
	p := &classParser{in: expr}
	c, err := p.parseTop()
	if err != nil {
		return automata.SymbolClass{}, err
	}
	if p.pos != len(p.in) {
		return automata.SymbolClass{}, fmt.Errorf("anml: trailing input %q in class %q", p.in[p.pos:], expr)
	}
	return c, nil
}

type classParser struct {
	in  string
	pos int
}

func (p *classParser) parseTop() (automata.SymbolClass, error) {
	if p.in == "" {
		return automata.SymbolClass{}, fmt.Errorf("anml: empty class expression")
	}
	switch p.in[p.pos] {
	case '*':
		p.pos++
		return automata.AllClass(), nil
	case '.':
		p.pos++
		return dotClass(), nil
	case '[':
		return p.parseBracket()
	case '\\':
		return p.parseEscape()
	default:
		b := p.in[p.pos]
		p.pos++
		return automata.SingleClass(b), nil
	}
}

func dotClass() automata.SymbolClass {
	c := automata.AllClass()
	c.Remove('\n')
	return c
}

func (p *classParser) parseEscape() (automata.SymbolClass, error) {
	p.pos++ // consume backslash
	if p.pos >= len(p.in) {
		return automata.SymbolClass{}, fmt.Errorf("anml: dangling escape in %q", p.in)
	}
	b := p.in[p.pos]
	p.pos++
	switch b {
	case 'x':
		if p.pos+2 > len(p.in) {
			return automata.SymbolClass{}, fmt.Errorf("anml: truncated \\x escape in %q", p.in)
		}
		var v int
		for i := 0; i < 2; i++ {
			d := hexVal(p.in[p.pos])
			if d < 0 {
				return automata.SymbolClass{}, fmt.Errorf("anml: bad hex digit %q in %q", p.in[p.pos], p.in)
			}
			v = v*16 + d
			p.pos++
		}
		return automata.SingleClass(byte(v)), nil
	case 'n':
		return automata.SingleClass('\n'), nil
	case 'r':
		return automata.SingleClass('\r'), nil
	case 't':
		return automata.SingleClass('\t'), nil
	case '0':
		return automata.SingleClass(0), nil
	case 'd':
		return automata.RangeClass('0', '9'), nil
	case 'w':
		c := automata.RangeClass('a', 'z').
			Union(automata.RangeClass('A', 'Z')).
			Union(automata.RangeClass('0', '9'))
		c.Add('_')
		return c, nil
	case 's':
		return automata.ClassOf(' ', '\t', '\n', '\r', '\v', '\f'), nil
	default:
		// Escaped metacharacter: the literal byte.
		return automata.SingleClass(b), nil
	}
}

func (p *classParser) parseBracket() (automata.SymbolClass, error) {
	p.pos++ // consume '['
	negate := false
	if p.pos < len(p.in) && p.in[p.pos] == '^' {
		negate = true
		p.pos++
	}
	var c automata.SymbolClass
	for {
		if p.pos >= len(p.in) {
			return automata.SymbolClass{}, fmt.Errorf("anml: unterminated class in %q", p.in)
		}
		if p.in[p.pos] == ']' {
			p.pos++
			break
		}
		lo, err := p.bracketAtom()
		if err != nil {
			return automata.SymbolClass{}, err
		}
		if loSingle, ok := singleOf(lo); ok && p.pos+1 < len(p.in) && p.in[p.pos] == '-' && p.in[p.pos+1] != ']' {
			p.pos++ // consume '-'
			hi, err := p.bracketAtom()
			if err != nil {
				return automata.SymbolClass{}, err
			}
			hiSingle, ok := singleOf(hi)
			if !ok {
				return automata.SymbolClass{}, fmt.Errorf("anml: range upper bound is a class in %q", p.in)
			}
			if hiSingle < loSingle {
				return automata.SymbolClass{}, fmt.Errorf("anml: inverted range %#x-%#x in %q", loSingle, hiSingle, p.in)
			}
			c = c.Union(automata.RangeClass(loSingle, hiSingle))
			continue
		}
		c = c.Union(lo)
	}
	if negate {
		c = c.Negate()
	}
	return c, nil
}

// bracketAtom parses one element inside [...]: a literal or escape.
func (p *classParser) bracketAtom() (automata.SymbolClass, error) {
	if p.in[p.pos] == '\\' {
		return p.parseEscape()
	}
	b := p.in[p.pos]
	p.pos++
	return automata.SingleClass(b), nil
}

// singleOf reports whether c contains exactly one symbol and returns it.
func singleOf(c automata.SymbolClass) (byte, bool) {
	if c.Count() != 1 {
		return 0, false
	}
	for s := 0; s < 256; s++ {
		if c.Match(byte(s)) {
			return byte(s), true
		}
	}
	return 0, false
}

func hexVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'f':
		return int(b-'a') + 10
	case b >= 'A' && b <= 'F':
		return int(b-'A') + 10
	default:
		return -1
	}
}

// formatClass renders a class as an expression parseClass accepts: "*" for
// the universal class, "\xHH" for singletons, and "[\xAA-\xBB...]" otherwise.
// formatClass(parseClass(s)) is canonical: parsing its output reproduces the
// class exactly.
func formatClass(c automata.SymbolClass) string {
	if c.Equal(automata.AllClass()) {
		return "*"
	}
	if b, ok := singleOf(c); ok {
		return fmt.Sprintf("\\x%02x", b)
	}
	// Negated form is shorter for large classes such as ^EOF.
	if c.Count() > 128 {
		return "[^" + rangesOf(c.Negate()) + "]"
	}
	return "[" + rangesOf(c) + "]"
}

func rangesOf(c automata.SymbolClass) string {
	var sb strings.Builder
	s := 0
	for s < 256 {
		if !c.Match(byte(s)) {
			s++
			continue
		}
		start := s
		for s < 256 && c.Match(byte(s)) {
			s++
		}
		if start == s-1 {
			fmt.Fprintf(&sb, "\\x%02x", start)
		} else {
			fmt.Fprintf(&sb, "\\x%02x-\\x%02x", start, s-1)
		}
	}
	return sb.String()
}
