package anml

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/stats"
)

// buildMixedNetwork exercises every element kind, port, mode and option.
func buildMixedNetwork() *automata.Network {
	net := automata.NewNetwork()
	guard := net.AddSTE(automata.SingleClass(0xFE),
		automata.WithStart(automata.StartAll), automata.WithName("guard"))
	match := net.AddSTE(automata.ClassOf(0x00, 0x01), automata.WithName("match"))
	rst := net.AddSTE(automata.SingleClass(0xFF), automata.WithStart(automata.StartAll))
	ctr := net.AddCounter(4, automata.CounterPulse, automata.WithName("ihd"))
	latch := net.AddCounter(2, automata.CounterLatch)
	gate := net.AddGate(automata.GateAND)
	rep := net.AddSTE(automata.AllClass(), automata.WithReport(7), automata.WithName("report"))
	net.Connect(guard, match)
	net.ConnectCount(match, ctr)
	net.ConnectCount(match, latch)
	net.ConnectReset(rst, ctr)
	net.ConnectReset(rst, latch)
	net.Connect(ctr, gate)
	net.Connect(latch, gate)
	net.Connect(gate, rep)
	if err := net.Validate(); err != nil {
		panic(err)
	}
	return net
}

// netsEquivalent compares two networks structurally.
func netsEquivalent(t *testing.T, a, b *automata.Network) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("element counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		id := automata.ElementID(i)
		if a.KindOf(id) != b.KindOf(id) {
			t.Fatalf("element %d kind %v vs %v", i, a.KindOf(id), b.KindOf(id))
		}
		switch a.KindOf(id) {
		case automata.KindSTE:
			if !a.ClassOf(id).Equal(b.ClassOf(id)) {
				t.Errorf("element %d class %v vs %v", i, a.ClassOf(id), b.ClassOf(id))
			}
			if a.StartOf(id) != b.StartOf(id) {
				t.Errorf("element %d start %v vs %v", i, a.StartOf(id), b.StartOf(id))
			}
		case automata.KindCounter:
			if a.ThresholdOf(id) != b.ThresholdOf(id) || a.ModeOf(id) != b.ModeOf(id) {
				t.Errorf("element %d counter mismatch", i)
			}
		case automata.KindGate:
			if a.OpOf(id) != b.OpOf(id) {
				t.Errorf("element %d op mismatch", i)
			}
		}
		ar, aid := a.IsReporting(id)
		br, bid := b.IsReporting(id)
		if ar != br || (ar && aid != bid) {
			t.Errorf("element %d reporting %v/%d vs %v/%d", i, ar, aid, br, bid)
		}
		ae, be := a.Edges(id), b.Edges(id)
		if len(ae) != len(be) {
			t.Fatalf("element %d edge count %d vs %d", i, len(ae), len(be))
		}
		for j := range ae {
			if ae[j] != be[j] {
				t.Errorf("element %d edge %d: %+v vs %+v", i, j, ae[j], be[j])
			}
		}
		if a.NameOf(id) != b.NameOf(id) {
			t.Errorf("element %d name %q vs %q", i, a.NameOf(id), b.NameOf(id))
		}
	}
}

func TestRoundTripMixedNetwork(t *testing.T) {
	net := buildMixedNetwork()
	var buf bytes.Buffer
	if err := Encode(&buf, net, "mixed"); err != nil {
		t.Fatal(err)
	}
	back, name, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v\nxml:\n%s", err, buf.String())
	}
	if name != "mixed" {
		t.Errorf("name = %q, want mixed", name)
	}
	netsEquivalent(t, net, back)
}

func TestRoundTripPreservesBehavior(t *testing.T) {
	net := buildMixedNetwork()
	var buf bytes.Buffer
	if err := Encode(&buf, net, "x"); err != nil {
		t.Fatal(err)
	}
	back, _, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(31)
	stream := make([]byte, 200)
	alphabet := []byte{0x00, 0x01, 0xFE, 0xFF}
	for i := range stream {
		stream[i] = alphabet[rng.Intn(len(alphabet))]
	}
	r1 := automata.MustSimulator(net).Run(stream)
	r2 := automata.MustSimulator(back).Run(stream)
	if len(r1) != len(r2) {
		t.Fatalf("report counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Cycle != r2[i].Cycle || r1[i].ReportID != r2[i].ReportID {
			t.Errorf("report %d: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

func TestRoundTripRandomNetworks(t *testing.T) {
	// Random DAG-ish networks over STEs and counters round trip structurally.
	rng := stats.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		net := automata.NewNetwork()
		n := rng.Intn(20) + 2
		var stes []automata.ElementID
		for i := 0; i < n; i++ {
			var class automata.SymbolClass
			for b := 0; b < 256; b++ {
				if rng.Float64() < 0.3 {
					class.Add(byte(b))
				}
			}
			if class.IsEmpty() {
				class = automata.AllClass()
			}
			var opts []automata.STEOpt
			if rng.Float64() < 0.3 {
				opts = append(opts, automata.WithStart(automata.StartAll))
			}
			if rng.Float64() < 0.2 {
				opts = append(opts, automata.WithReport(int32(rng.Intn(100))))
			}
			stes = append(stes, net.AddSTE(class, opts...))
		}
		for i := 1; i < n; i++ {
			net.Connect(stes[rng.Intn(i)], stes[i])
		}
		if rng.Bool() {
			ctr := net.AddCounter(rng.Intn(9)+1, automata.CounterPulse)
			net.ConnectCount(stes[0], ctr)
			net.Connect(ctr, stes[n-1])
		}
		var buf bytes.Buffer
		if err := Encode(&buf, net, "rand"); err != nil {
			t.Fatal(err)
		}
		back, _, err := Decode(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		netsEquivalent(t, net, back)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		xml  string
	}{
		{"bad xml", "<automata-network"},
		{"bad class", `<automata-network><state-transition-element id="e0" symbol-set="[unclosed"/></automata-network>`},
		{"bad start", `<automata-network><state-transition-element id="e0" symbol-set="*" start="bogus"/></automata-network>`},
		{"unknown target", `<automata-network><state-transition-element id="e0" symbol-set="*"><activate-on-match element="e9"/></state-transition-element></automata-network>`},
		{"bad mode", `<automata-network><counter id="e0" target="3" at-target="bogus"/></automata-network>`},
		{"bad target", `<automata-network><counter id="e0" target="0" at-target="pulse"/></automata-network>`},
		{"bad op", `<automata-network><boolean id="e0" function="bogus"/></automata-network>`},
		{"dup id", `<automata-network><state-transition-element id="e0" symbol-set="*"/><state-transition-element id="e0" symbol-set="*"/></automata-network>`},
	}
	for _, c := range cases {
		if _, _, err := Decode(strings.NewReader(c.xml)); err == nil {
			t.Errorf("%s: decode succeeded, want error", c.name)
		}
	}
}

func TestEncodeContainsExpectedMarkup(t *testing.T) {
	net := buildMixedNetwork()
	var buf bytes.Buffer
	if err := Encode(&buf, net, "knn"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"automata-network", "state-transition-element", "counter",
		"boolean", "reportcode", ":count", ":reset", `at-target="pulse"`,
		`at-target="latch"`, `function="and"`, `start="all-input"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("encoded ANML missing %q:\n%s", want, out)
		}
	}
}
