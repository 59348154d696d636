package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/anml"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/stats"
)

const designGolden = "testdata/designs.golden"

// TestDesignGolden pins every automata design and every stream writer byte
// for byte: the ANML encoding of each network (element IDs, kinds, symbol
// classes, names, start and report settings, and every edge with its port,
// in order) and the symbols each writer emits, as a length and a SHA-256 per
// case. The golden file was written by these builders before they were
// rebuilt from shared parts; regenerate it only from a commit whose
// builders are the reference, never to make a refactor pass. On a mismatch
// the test prints the file it computed.
func TestDesignGolden(t *testing.T) {
	got := designDigests(t)
	raw, err := os.ReadFile(designGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	wantLines := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(want), "\n") {
		wantLines[strings.Fields(line)[0]] = line
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if w := wantLines[strings.Fields(line)[0]]; w != line {
			t.Errorf("got  %s\nwant %s", line, w)
		}
	}
	t.Fatalf("%s differs; computed file:\n%s", designGolden, got)
}

// designDigests builds each design the golden file covers, at
// d ∈ {1, 7, 16, 17, 33}, and returns one line per network (its element
// count and its ANML's length and SHA-256) and per stream (its length and
// SHA-256). PaperLayout(1) is not a valid layout (a single collector over
// one match has fan-in 1), so d = 1 has no paper cases.
func designDigests(t *testing.T) string {
	var b strings.Builder
	network := func(name string, build func(net *automata.Network)) {
		net := automata.NewNetwork()
		build(net)
		if err := net.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := anml.Encode(&buf, net, "design"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s elements=%d bytes=%d sha256=%x\n", name, net.Len(), buf.Len(), sha256.Sum256(buf.Bytes()))
	}
	stream := func(name string, s []byte) {
		fmt.Fprintf(&b, "%s bytes=%d sha256=%x\n", name, len(s), sha256.Sum256(s))
	}
	rng := stats.NewRNG(49)
	for _, d := range []int{1, 7, 16, 17, 33} {
		// Three random vectors, an all-zero one and an all-one one.
		ds := bitvec.RandomDataset(rng, 3, d)
		ds.Append(bitvec.New(d))
		ones := bitvec.New(d)
		for i := 0; i < d; i++ {
			ones.Set(i, true)
		}
		ds.Append(ones)
		queries := bitvec.RandomDataset(rng, 3, d)
		qs := func(n int) []bitvec.Vector {
			out := make([]bitvec.Vector, n)
			for i := range out {
				out[i] = queries.At(i)
			}
			return out
		}

		layouts := []struct {
			name string
			l    Layout
		}{{"new", NewLayout(d)}, {"paper", PaperLayout(d)}}
		for _, lay := range layouts {
			l := lay.l
			if l.Validate() != nil {
				continue
			}
			network(fmt.Sprintf("linear/%s/d%d", lay.name, d), func(net *automata.Network) { BuildLinear(net, ds, l) })
			for _, g := range []int{1, 3} {
				network(fmt.Sprintf("packed/%s/d%d/g%d", lay.name, d, g), func(net *automata.Network) {
					BuildPacked(net, ds.Slice(1, 1+g), l, 5)
				})
			}
			for _, n := range []int{1, 3} {
				batch, err := EncodeBatch(qs(n), l)
				if err != nil {
					t.Fatal(err)
				}
				stream(fmt.Sprintf("stream/%s/d%d/q%d", lay.name, d, n), batch.stream)
			}
		}

		l := NewLayout(d)
		for _, s := range []int{1, 3, 7} {
			network(fmt.Sprintf("mux/d%d/s%d", d, s), func(net *automata.Network) { BuildMux(net, ds.Slice(0, 2), l, s) })
			for _, n := range []int{1, 3} {
				stream(fmt.Sprintf("muxstream/d%d/s%d/q%d", d, s, n), BuildMuxStream(qs(n), l, s))
			}
		}
		network(fmt.Sprintf("jaccard/d%d", d), func(net *automata.Network) {
			for i := 0; i < ds.Len(); i++ {
				BuildJaccardMacro(net, ds.At(i), l, int32(i))
			}
		})
		for _, per := range []int{1, 3, 7} {
			ml := MultiDimLayout{Dim: d, DimsPerSymbol: per}
			network(fmt.Sprintf("multidim/d%d/p%d", d, per), func(net *automata.Network) {
				for i := 0; i < ds.Len(); i++ {
					BuildMultiDimMacro(net, ds.At(i), ml, int32(i))
				}
			})
			for _, n := range []int{1, 3} {
				stream(fmt.Sprintf("mdstream/d%d/p%d/q%d", d, per, n), BuildMultiDimStream(qs(n), ml))
			}
		}
		for _, kPrime := range []int{1, 2} {
			network(fmt.Sprintf("reduction/d%d/k%d", d, kPrime), func(net *automata.Network) {
				BuildReductionGroup(net, ds, l, kPrime, 7)
			})
		}
	}
	return b.String()
}
