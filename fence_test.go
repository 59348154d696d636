package apknn_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestImportFence holds the serving path apart from the simulator: the
// non-test import closure of the serving-tier packages never reaches the root
// package or any package that models a platform, and the router and the
// dashboard additionally never link the live index or the WAL. The other way
// round, the model harness (cmd/apbench) never links the HTTP tiers: host
// time through a server is bench/'s to measure. No program links the test
// filesystem (internal/wal/memfs). A violation prints the import
// chain that caused it.
func TestImportFence(t *testing.T) {
	const module = "repro"
	internal := func(names ...string) map[string]bool {
		set := map[string]bool{}
		for _, n := range names {
			set[module+"/internal/"+n] = true
		}
		return set
	}
	simulator := internal("automata", "anml", "ap", "core", "shard",
		"index", "quantize", "perfmodel", "report", "workload")
	simulator[module] = true
	andStorage := internal("live", "wal")
	for p := range simulator {
		andStorage[p] = true
	}
	fenced := map[string]map[string]bool{
		"cmd/aprouter": andStorage, "cmd/aptop": andStorage,
		"cmd/apbench": internal("serve", "cluster"),
	}
	for _, p := range []string{"serve", "cluster", "live", "wal", "knn", "obs", "bitvec", "heat"} {
		fenced["internal/"+p] = simulator
	}
	// The in-memory filesystem is for tests: no program links it.
	for _, start := range []string{"bench", "cmd/apknn", "cmd/apserve", "cmd/apcompile", "cmd/aptrace", "cmd/aprouter", "cmd/aptop", "cmd/apbench"} {
		set := map[string]bool{module + "/internal/wal/memfs": true}
		for p := range fenced[start] {
			set[p] = true
		}
		fenced[start] = set
	}

	// imports returns the module-local packages that pkg's non-test files
	// import under the default build constraints.
	imports := func(pkg string) []string {
		p, err := build.ImportDir(filepath.Join(".", strings.TrimPrefix(pkg, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		var local []string
		for _, imp := range p.Imports {
			if imp == module || strings.HasPrefix(imp, module+"/") {
				local = append(local, imp)
			}
		}
		return local
	}
	for start, forbidden := range fenced {
		root := module + "/" + start
		via := map[string]string{root: ""}
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			for _, imp := range imports(queue[0]) {
				if _, seen := via[imp]; seen {
					continue
				}
				via[imp] = queue[0]
				if !forbidden[imp] {
					queue = append(queue, imp)
					continue
				}
				chain := imp
				for p := via[imp]; p != ""; p = via[p] {
					chain = p + " -> " + chain
				}
				t.Errorf("%s must not link %s: %s", start, imp, chain)
			}
		}
	}
}
