package apknn_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/ap"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/perfmodel"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RecallFloors documents the quality floor each approximate index must meet
// in TestBackendEquivalence: recall@10 on a clustered dataset with generous
// probe budgets. The floors are deliberately below typical observed recall
// (which sits well above them on this workload) so the test guards against
// collapse, not noise.
var recallFloors = map[apknn.IndexKind]float64{
	apknn.LSH:        0.55,
	apknn.KMeansTree: 0.55,
	apknn.KDForest:   0.55,
}

// backendFilter honors the CI matrix: when APKNN_BACKEND / APKNN_BOARDS are
// set, only that slice of the equivalence matrix runs.
func backendFilter() (apknn.BackendKind, int) {
	kind := apknn.BackendKind(os.Getenv("APKNN_BACKEND"))
	boards := 0
	if b := os.Getenv("APKNN_BOARDS"); b != "" {
		fmt.Sscanf(b, "%d", &boards)
	}
	return kind, boards
}

// TestBackendEquivalence is the cross-backend property test: every
// result-exact backend — AP sim, fast, sharded fleet, CPU, GPU model, FPGA
// model — must return byte-identical neighbor lists to ExactSearch across
// dims {8, 32, 64, 128, 256} and board counts {1, 3}, and every approximate
// backend must clear its documented recall floor. The d=8 row forces heavy
// distance ties (300 vectors over 256 codes, k=12), so the shared
// (Dist, ID) tie-break decides most ranks, in a batch of 21 queries; the
// d=64 row is a longer batch (37 queries) over distinct codes.
func TestBackendEquivalence(t *testing.T) {
	filterKind, filterBoards := backendFilter()
	ctx := context.Background()
	cases := []struct {
		dim, n, capacity, k, queries int
	}{
		{dim: 8, n: 300, capacity: 100, k: 12, queries: 21},
		{dim: 32, n: 130, capacity: 40, k: 7, queries: 6},
		{dim: 64, n: 200, capacity: 50, k: 5, queries: 37},
		{dim: 128, n: 96, capacity: 24, k: 5, queries: 6},
		{dim: 256, n: 60, capacity: 20, k: 4, queries: 6},
	}
	exactKinds := []apknn.BackendKind{apknn.AP, apknn.Fast, apknn.Sharded, apknn.CPU, apknn.GPU, apknn.FPGA}
	boardCounts := []int{1, 3}
	for _, c := range cases {
		ds := apknn.RandomDataset(uint64(c.dim), c.n, c.dim)
		queries := apknn.RandomQueries(uint64(c.dim)+1, c.queries, c.dim)
		want := apknn.ExactSearch(ds, queries, c.k, 2)
		for _, kind := range exactKinds {
			if filterKind != "" && kind != filterKind {
				continue
			}
			boardSweep := boardCounts
			if kind == apknn.CPU || kind == apknn.GPU || kind == apknn.FPGA {
				boardSweep = []int{0} // single-device models; boards don't apply
			}
			for _, boards := range boardSweep {
				if filterBoards != 0 && boards != 0 && boards != filterBoards {
					continue
				}
				name := fmt.Sprintf("%s/d%d/b%d", kind, c.dim, boards)
				t.Run(name, func(t *testing.T) {
					idx, err := apknn.Open(ds,
						apknn.WithBackend(kind),
						apknn.WithCapacity(c.capacity),
						apknn.WithBoards(boards),
					)
					if err != nil {
						t.Fatal(err)
					}
					got, err := idx.Search(ctx, queries, c.k)
					if err != nil {
						t.Fatal(err)
					}
					for qi := range queries {
						if len(got[qi]) != len(want[qi]) {
							t.Fatalf("query %d: %d neighbors, want %d", qi, len(got[qi]), len(want[qi]))
						}
						for j := range want[qi] {
							if got[qi][j] != want[qi][j] {
								t.Fatalf("query %d rank %d = %+v, want %+v", qi, j, got[qi][j], want[qi][j])
							}
						}
					}
					if st := idx.Stats(); st.Queries != int64(len(queries)) || st.Batches != 1 {
						t.Errorf("stats = %d queries / %d batches, want %d / 1", st.Queries, st.Batches, len(queries))
					}
				})
			}
		}
	}

	// Approximate backends: recall floor on a clustered workload.
	if filterKind == "" || filterKind == apknn.Approx {
		rng := stats.NewRNG(77)
		ds := workload.Clustered(rng, 30, 20, 64, 4)
		queries := workload.PlantedQueries(rng, ds, 12, 3)
		const k = 10
		want := apknn.ExactSearch(ds, queries, k, 2)
		for ik, floor := range recallFloors {
			t.Run(fmt.Sprintf("approx/%d", int(ik)), func(t *testing.T) {
				idx, err := apknn.Open(ds,
					apknn.WithBackend(apknn.Approx),
					apknn.WithIndex(ik),
					apknn.WithCapacity(40),
					apknn.WithProbes(16),
					apknn.WithSeed(7),
				)
				if err != nil {
					t.Fatal(err)
				}
				got, err := idx.Search(ctx, queries, k)
				if err != nil {
					t.Fatal(err)
				}
				recall := 0.0
				for qi := range queries {
					recall += apknn.Recall(got[qi], want[qi])
				}
				recall /= float64(len(queries))
				if recall < floor {
					t.Errorf("recall@%d = %.2f, floor %.2f", k, recall, floor)
				}
				if st := idx.Stats(); st.CandidatesScanned <= 0 {
					t.Errorf("CandidatesScanned = %d, want > 0", st.CandidatesScanned)
				}
			})
		}
	}
}

// TestScanBackendMeters: every exact backend but ap is one kernel scan that
// differs only in its meter. cpu, gpu and fpga charge each batch their
// platform's calibrated model as modeled time, n·queries candidate pairs
// and (fpga only) the accelerator's streamed cycles as symbols, on one
// board. fast and sharded charge the board fleet: each board streams every
// query once per configuration it holds and loads each configuration once
// per batch, scans no candidates, and the modeled time is the slowest
// board's.
func TestScanBackendMeters(t *testing.T) {
	const n, dim, batches, capacity = 300, 96, 2, 40
	ds := apknn.RandomDataset(5, n, dim)
	queries := apknn.RandomQueries(6, 21, dim)
	q := len(queries)
	perBatch := func(modeled time.Duration, symbols int64) (time.Duration, apknn.Stats) {
		return batches * modeled, apknn.Stats{Boards: 1, SymbolsStreamed: batches * symbols, CandidatesScanned: batches * n * int64(q)}
	}
	fleet := func(boards int) (time.Duration, apknn.Stats) {
		streamLen := core.NewLayout(dim).StreamLen()
		var st apknn.Stats
		var slowest time.Duration
		for _, r := range shard.Split(n, capacity, boards) {
			parts := (r[1] - r[0] + capacity - 1) / capacity
			symbols, reconfigs := batches*parts*q*streamLen, batches*parts
			bt := ap.Gen2().ModeledTime(symbols, reconfigs)
			st.Boards++
			st.Partitions += parts
			st.SymbolsStreamed += int64(symbols)
			st.Reconfigs += int64(reconfigs)
			st.PerBoardTime = append(st.PerBoardTime, bt)
			slowest = max(slowest, bt)
		}
		return slowest, st
	}
	cases := []struct {
		name string
		opts []apknn.Option
		want func() (time.Duration, apknn.Stats)
	}{
		{"cpu", []apknn.Option{apknn.WithBackend(apknn.CPU)}, func() (time.Duration, apknn.Stats) {
			return perBatch(perfmodel.CPUTime(perfmodel.XeonE5(), n, q, dim), 0)
		}},
		{"gpu-titanx", []apknn.Option{apknn.WithBackend(apknn.GPU)}, func() (time.Duration, apknn.Stats) {
			return perBatch(perfmodel.GPUTime(perfmodel.TitanX(), n, q), 0)
		}},
		{"gpu-tegrak1", []apknn.Option{apknn.WithBackend(apknn.GPU), apknn.WithGPUModel(apknn.TegraK1)}, func() (time.Duration, apknn.Stats) {
			return perBatch(perfmodel.GPUTime(perfmodel.JetsonTK1(), n, q), 0)
		}},
		{"fpga", []apknn.Option{apknn.WithBackend(apknn.FPGA)}, func() (time.Duration, apknn.Stats) {
			return perBatch(perfmodel.FPGATime(perfmodel.Kintex7(), n, q, dim), perfmodel.FPGACycles(perfmodel.Kintex7(), n, q, dim))
		}},
		{"fast", []apknn.Option{apknn.WithBackend(apknn.Fast), apknn.WithCapacity(capacity)}, func() (time.Duration, apknn.Stats) {
			return fleet(1)
		}},
		{"sharded", []apknn.Option{apknn.WithBackend(apknn.Sharded), apknn.WithCapacity(capacity)}, func() (time.Duration, apknn.Stats) {
			return fleet(4)
		}},
		{"sharded-3", []apknn.Option{apknn.WithBackend(apknn.Sharded), apknn.WithCapacity(capacity), apknn.WithBoards(3)}, func() (time.Duration, apknn.Stats) {
			return fleet(3)
		}},
	}
	for _, c := range cases {
		idx, err := apknn.Open(ds, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batches; i++ {
			if _, err := idx.Search(context.Background(), queries, 4); err != nil {
				t.Fatal(err)
			}
		}
		modeled, want := c.want()
		if got := idx.ModeledTime(); got != modeled || got <= 0 {
			t.Errorf("%s: ModeledTime = %v, want %v", c.name, got, modeled)
		}
		got := idx.Stats()
		got.Backend, got.Queries, got.Batches = "", 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: metered stats %+v, want %+v", c.name, got, want)
		}
	}
}

// TestFleetBackendsMatchOracle holds fast and sharded — one kernel scan of
// the whole dataset, boards only metered — to the brute-force oracle
// knn.Linear at sizes that span several kernel blocks: every kernel stride
// (d=192 is stride 3, the portable loop on every host), ragged last
// partitions, a dataset smaller than one partition, uniform and tie-heavy
// data, k at and around the capacity and the dataset size, batches of 1, 7
// and 33, board counts {1, 2, 4, 7}, and the kernel width left to its own
// rule or set.
func TestFleetBackendsMatchOracle(t *testing.T) {
	cases := []struct{ dim, n, capacity, workers int }{
		{dim: 32, n: 9001, capacity: 1000, workers: 2},
		{dim: 64, n: 8200, capacity: 512},
		{dim: 64, n: 100, capacity: 1024}, // n < capacity
		{dim: 128, n: 5003, capacity: 300},
		{dim: 192, n: 3001, capacity: 128, workers: 3},
		{dim: 256, n: 2500, capacity: 96},
	}
	ctx := context.Background()
	for _, c := range cases {
		rng := stats.NewRNG(uint64(c.dim + c.n))
		for di, ds := range []*apknn.Dataset{
			bitvec.RandomDataset(rng, c.n, c.dim),
			workload.TieHeavy(rng, c.n, c.dim, c.capacity),
		} {
			// Half the queries are dataset vectors: distance-0 ties.
			queries := make([]apknn.Vector, 33)
			for i := range queries {
				if i%2 == 0 {
					queries[i] = ds.At(rng.Intn(c.n))
				} else {
					queries[i] = bitvec.Random(rng, c.dim)
				}
			}
			type fleetCase struct {
				kind   apknn.BackendKind
				boards int
				idx    apknn.Index
			}
			var fleets []fleetCase
			for _, kind := range []apknn.BackendKind{apknn.Fast, apknn.Sharded} {
				for _, boards := range []int{1, 2, 4, 7} {
					idx, err := apknn.Open(ds, apknn.WithBackend(kind), apknn.WithBoards(boards),
						apknn.WithWorkers(c.workers), apknn.WithCapacity(c.capacity))
					if err != nil {
						t.Fatal(err)
					}
					fleets = append(fleets, fleetCase{kind, boards, idx})
				}
			}
			batchSizes := []int{1, 7, 33}
			for ki, k := range []int{1, c.capacity, c.capacity + 1, c.n, c.n + 5} {
				// A full ranking costs n log n per query on both sides:
				// seven queries of it are enough.
				most := len(queries)
				if k >= c.n {
					most = 7
				}
				want := make([][]apknn.Neighbor, most)
				for qi := range want {
					want[qi] = knn.Linear(ds, queries[qi], k)
				}
				for fi, f := range fleets {
					// One batch size per (k, fleet) pair, rotated so every
					// batch size meets every board count.
					nq := min(batchSizes[(ki+fi)%len(batchSizes)], most)
					got, err := f.idx.Search(ctx, queries[:nq], k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[:nq]) {
						t.Fatalf("%s d=%d n=%d cap=%d k=%d boards=%d data=%d nq=%d: results differ from knn.Linear",
							f.kind, c.dim, c.n, c.capacity, k, f.boards, di, nq)
					}
				}
			}
		}
	}
}

// TestOpenErrors checks the typed sentinel errors of the new surface.
func TestOpenErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := apknn.Open(nil); !errors.Is(err, apknn.ErrEmptyDataset) {
		t.Errorf("nil dataset: %v, want ErrEmptyDataset", err)
	}
	ds := apknn.RandomDataset(1, 50, 32)
	if _, err := apknn.Open(ds, apknn.WithBackend("warp-drive")); !errors.Is(err, apknn.ErrUnknownBackend) {
		t.Errorf("unknown backend: %v, want ErrUnknownBackend", err)
	}
	for _, kind := range apknn.Backends() {
		idx, err := apknn.Open(ds, apknn.WithBackend(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := idx.Search(ctx, apknn.RandomQueries(2, 2, 32), 0); !errors.Is(err, apknn.ErrBadK) {
			t.Errorf("%s k=0: %v, want ErrBadK", kind, err)
		}
		if _, err := idx.Search(ctx, apknn.RandomQueries(2, 2, 16), 3); !errors.Is(err, apknn.ErrDimMismatch) {
			t.Errorf("%s dim mismatch: %v, want ErrDimMismatch", kind, err)
		}
	}
}

// TestBackendsRegistry checks the registry surface: the seven built-ins are
// present, duplicates are rejected, and a custom backend round-trips
// through Open.
func TestBackendsRegistry(t *testing.T) {
	kinds := map[apknn.BackendKind]bool{}
	for _, k := range apknn.Backends() {
		kinds[k] = true
	}
	for _, k := range []apknn.BackendKind{apknn.AP, apknn.Fast, apknn.Sharded, apknn.CPU, apknn.GPU, apknn.FPGA, apknn.Approx} {
		if !kinds[k] {
			t.Errorf("built-in backend %q not registered", k)
		}
	}
	if err := apknn.RegisterBackend(stubBackend{kind: apknn.CPU}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := apknn.RegisterBackend(stubBackend{kind: "stub"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { apknn.UnregisterBackend("stub") })
	ds := apknn.RandomDataset(3, 10, 16)
	idx, err := apknn.Open(ds, apknn.WithBackend("stub"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Search(context.Background(), apknn.RandomQueries(4, 1, 16), 1); err != nil {
		t.Fatal(err)
	}
}

// stubBackend delegates to the CPU index — just enough to prove external
// registration works.
type stubBackend struct{ kind apknn.BackendKind }

func (s stubBackend) Kind() apknn.BackendKind { return s.kind }

func (s stubBackend) Compile(ds *apknn.Dataset, cfg apknn.Config) (apknn.Index, error) {
	cfg.Backend = apknn.CPU
	return apknn.Open(ds, apknn.WithBackend(apknn.CPU), apknn.WithWorkers(cfg.Workers))
}

// TestStatsSnapshot exercises the serving counters of the board-backed path.
func TestStatsSnapshot(t *testing.T) {
	ctx := context.Background()
	ds := apknn.RandomDataset(9, 120, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast), apknn.WithCapacity(30), apknn.WithBoards(2))
	if err != nil {
		t.Fatal(err)
	}
	queries := apknn.RandomQueries(10, 3, 32)
	for i := 0; i < 3; i++ {
		if _, err := idx.Search(ctx, queries, 4); err != nil {
			t.Fatal(err)
		}
	}
	st := idx.Stats()
	if st.Backend != apknn.Fast {
		t.Errorf("Backend = %q", st.Backend)
	}
	if st.Queries != 9 || st.Batches != 3 {
		t.Errorf("Queries/Batches = %d/%d, want 9/3", st.Queries, st.Batches)
	}
	if st.Boards != 2 || st.Partitions != 4 {
		t.Errorf("Boards/Partitions = %d/%d, want 2/4", st.Boards, st.Partitions)
	}
	if st.SymbolsStreamed <= 0 {
		t.Errorf("SymbolsStreamed = %d, want > 0", st.SymbolsStreamed)
	}
	// 2 partitions per board, 3 batches: 6 reconfigurations each.
	if st.Reconfigs != 12 {
		t.Errorf("Reconfigs = %d, want 12", st.Reconfigs)
	}
	if len(st.PerBoardTime) != 2 {
		t.Fatalf("PerBoardTime has %d entries, want 2", len(st.PerBoardTime))
	}
	for i, bt := range st.PerBoardTime {
		if bt <= 0 {
			t.Errorf("PerBoardTime[%d] = %v, want > 0", i, bt)
		}
		if bt > idx.ModeledTime() {
			t.Errorf("PerBoardTime[%d] = %v exceeds ModeledTime %v", i, bt, idx.ModeledTime())
		}
	}
}

// TestShardedDefaultBoards checks the Sharded backend's scale-out default.
func TestShardedDefaultBoards(t *testing.T) {
	ds := apknn.RandomDataset(11, 400, 32)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Sharded), apknn.WithCapacity(50))
	if err != nil {
		t.Fatal(err)
	}
	if st := idx.Stats(); st.Boards != 4 {
		t.Errorf("Sharded default boards = %d, want 4", st.Boards)
	}
}

// TestSearchExcludingBackends holds every registered backend to the
// exclusion contract the live index relies on: it is an
// apknn.ExcludingSearcher; SearchExcluding returns, for an exact backend,
// the exact top-k of the surviving vectors under their own IDs (k past the
// survivors included) and, for approx, exactly what a Search over-fetched
// by the dead count, filtered and cut to k returns; and it charges the
// meters — modeled time, candidates, symbols, reconfigurations, queries —
// exactly what a plain Search of the same batch does.
func TestSearchExcludingBackends(t *testing.T) {
	ctx := context.Background()
	const n, dim = 500, 64
	ds := apknn.RandomDataset(41, n, dim)
	queries := apknn.RandomQueries(42, 5, dim)
	queries[0] = ds.At(0) // a dead vector's own copy must not find it
	var dead apknn.Bitset
	var gids []int
	survivors := apknn.RandomDataset(1, 0, dim)
	for i := 0; i < n; i++ {
		if i < 40 || i%7 == 0 {
			dead = dead.Add(i, n)
			continue
		}
		survivors.Append(ds.At(i))
		gids = append(gids, i)
	}
	deadN := n - survivors.Len()
	for _, kind := range apknn.Backends() {
		if kind == searchOnlyKind {
			continue // registered by TestOpenLiveRefusesSearchOnlyBackend because it cannot exclude
		}
		idx, err := apknn.Open(ds, apknn.WithBackend(kind), apknn.WithCapacity(64))
		if err != nil {
			t.Fatal(err)
		}
		ex, ok := idx.(apknn.ExcludingSearcher)
		if !ok {
			t.Errorf("%s: not an apknn.ExcludingSearcher", kind)
			continue
		}
		for _, k := range []int{1, 8, survivors.Len() + 5} {
			var want [][]apknn.Neighbor
			if kind == apknn.Approx {
				all, err := idx.Search(ctx, queries, k+deadN)
				if err != nil {
					t.Fatal(err)
				}
				want = make([][]apknn.Neighbor, len(all))
				for qi, ns := range all {
					want[qi] = []apknn.Neighbor{}
					for _, nb := range ns {
						if !dead.Has(nb.ID) && len(want[qi]) < k {
							want[qi] = append(want[qi], nb)
						}
					}
				}
			} else {
				want = apknn.ExactSearch(survivors, queries, k, 1)
				for _, ns := range want {
					for j := range ns {
						ns[j].ID = gids[ns[j].ID]
					}
				}
			}
			got, err := ex.SearchExcluding(ctx, queries, k, dead)
			if err != nil {
				t.Fatalf("%s k=%d: %v", kind, k, err)
			}
			for qi := range queries {
				if len(got[qi]) != len(want[qi]) {
					t.Fatalf("%s k=%d query %d: %d results, want %d", kind, k, qi, len(got[qi]), len(want[qi]))
				}
				for j, w := range want[qi] {
					if got[qi][j] != w {
						t.Fatalf("%s k=%d query %d rank %d: got %v, want %v", kind, k, qi, j, got[qi][j], w)
					}
				}
			}
		}
		// The meters: one plain Search, then one excluding search of the
		// same batch, must each advance them by the same amount.
		meters := func() [5]int64 {
			st := idx.Stats()
			return [5]int64{int64(idx.ModeledTime()), st.CandidatesScanned, st.SymbolsStreamed, st.Reconfigs, st.Queries}
		}
		m0 := meters()
		if _, err := idx.Search(ctx, queries, 8); err != nil {
			t.Fatal(err)
		}
		m1 := meters()
		if _, err := ex.SearchExcluding(ctx, queries, 8, dead); err != nil {
			t.Fatal(err)
		}
		m2 := meters()
		for i := range m0 {
			if m1[i]-m0[i] != m2[i]-m1[i] {
				t.Errorf("%s: meter %d advanced %d for Search, %d for SearchExcluding", kind, i, m1[i]-m0[i], m2[i]-m1[i])
			}
		}
		if _, err := ex.SearchExcluding(ctx, queries, 8, make(apknn.Bitset, 1)); err == nil {
			t.Errorf("%s: accepted an exclusion set shorter than the dataset", kind)
		}
	}
}
