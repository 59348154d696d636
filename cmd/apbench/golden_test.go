package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRuns is Table VI's Monte Carlo repetition count in the golden files:
// small enough to keep the test quick, and the table is a function of it.
const goldenRuns = 10

// TestGolden pins every byte apbench prints outside -exp hotpath: the eight
// paper tables and each modeled experiment are pure functions of their seeds,
// so a model change shows up as a diff here. To accept an intended change,
// replace the golden file with the output the failure prints.
func TestGolden(t *testing.T) {
	type unit struct {
		golden string
		run    func(w io.Writer) error
	}
	var units []unit
	for table := 1; table <= 8; table++ {
		table := table
		units = append(units, unit{
			fmt.Sprintf("table%d.golden", table),
			func(w io.Writer) error { return runTable(w, table, goldenRuns) },
		})
	}
	for _, e := range experiments {
		if e.name == "hotpath" {
			continue // host wall-clock: gated by -regress BENCH_hotpath.json instead
		}
		name := e.name
		units = append(units, unit{
			name + ".golden",
			func(w io.Writer) error { return runExperiment(w, name) },
		})
	}
	for _, u := range units {
		want, err := os.ReadFile(filepath.Join("testdata", u.golden))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := u.run(&got); err != nil {
			t.Fatalf("%s: %v", u.golden, err)
		}
		if got.String() == string(want) {
			continue
		}
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		line := 0
		for line < len(gotLines) && line < len(wantLines) && gotLines[line] == wantLines[line] {
			line++
		}
		t.Errorf("%s: output changed at line %d; got:\n%s", u.golden, line+1, got.String())
	}
}

// TestUnknownExperimentListsNames pins the one-table property from the
// outside: the error for a name that is not in the table names all that are.
func TestUnknownExperimentListsNames(t *testing.T) {
	err := runExperiment(io.Discard, "serve")
	if !errors.Is(err, errUnknown) {
		t.Fatalf("runExperiment(serve) = %v, want errUnknown", err)
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not list %q", err, e.name)
		}
	}
}
