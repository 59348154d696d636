package shard_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ap"
	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workload"
)

// queryEngine answers a batch; implemented by the serial core engines.
type queryEngine interface {
	Query(queries []bitvec.Vector, k int) ([][]knn.Neighbor, error)
}

func mustQuery(t *testing.T, e queryEngine, queries []bitvec.Vector, k int) [][]knn.Neighbor {
	t.Helper()
	res, err := e.Query(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustQueryShard(t *testing.T, e *shard.Engine, queries []bitvec.Vector, k int) [][]knn.Neighbor {
	t.Helper()
	res, err := e.Query(context.Background(), queries, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertIdentical requires byte-identical neighbor lists: same IDs, same
// distances, same (distance, ID) tie-break order, same lengths.
func assertIdentical(t *testing.T, label string, got, want [][]knn.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result lists, want %d", label, len(got), len(want))
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("%s: query %d has %d neighbors, want %d", label, qi, len(got[qi]), len(want[qi]))
		}
		for j := range want[qi] {
			if got[qi][j] != want[qi][j] {
				t.Fatalf("%s: query %d rank %d = %+v, want %+v", label, qi, j, got[qi][j], want[qi][j])
			}
		}
	}
}

// TestShardEquivalenceFast holds the fast substrate — one kernel scan of the
// whole dataset, boards only modeled — to the brute-force oracle knn.Linear
// at sizes that span several kernel blocks: every kernel stride (d=192 is
// stride 3, the portable loop on every host), ragged last partitions, a
// dataset smaller than one partition, uniform and tie-heavy data, k at and
// around the capacity and the dataset size, batches of 1, 7 and 33, board
// counts {1, 2, 4, 7}, and the kernel width left to its own rule or set.
func TestShardEquivalenceFast(t *testing.T) {
	cases := []struct{ dim, n, capacity, workers int }{
		{dim: 32, n: 9001, capacity: 1000, workers: 2},
		{dim: 64, n: 8200, capacity: 512},
		{dim: 64, n: 100, capacity: 1024}, // n < capacity
		{dim: 128, n: 5003, capacity: 300},
		{dim: 192, n: 3001, capacity: 128, workers: 3},
		{dim: 256, n: 2500, capacity: 96},
	}
	for _, c := range cases {
		rng := stats.NewRNG(uint64(c.dim + c.n))
		for di, ds := range []*bitvec.Dataset{
			bitvec.RandomDataset(rng, c.n, c.dim),
			workload.TieHeavy(rng, c.n, c.dim, c.capacity),
		} {
			// Half the queries are dataset vectors: distance-0 ties.
			queries := make([]bitvec.Vector, 33)
			for i := range queries {
				if i%2 == 0 {
					queries[i] = ds.At(rng.Intn(c.n))
				} else {
					queries[i] = bitvec.Random(rng, c.dim)
				}
			}
			boardCounts := []int{1, 2, 4, 7}
			engines := make([]*shard.Engine, len(boardCounts))
			for bi, boards := range boardCounts {
				eng, err := shard.New(ds, shard.Options{Boards: boards, Workers: c.workers, Capacity: c.capacity, Fast: true})
				if err != nil {
					t.Fatal(err)
				}
				engines[bi] = eng
			}
			batchSizes := []int{1, 7, 33}
			for ki, k := range []int{1, c.capacity, c.capacity + 1, c.n, c.n + 5} {
				// A full ranking costs n log n per query on both sides:
				// seven queries of it are enough.
				most := len(queries)
				if k >= c.n {
					most = 7
				}
				want := make([][]knn.Neighbor, most)
				for qi := range want {
					want[qi] = knn.Linear(ds, queries[qi], k)
				}
				for bi, eng := range engines {
					// One batch size per (k, boards) pair, rotated so every
					// batch size meets every board count.
					nq := min(batchSizes[(ki+bi)%len(batchSizes)], most)
					got := mustQueryShard(t, eng, queries[:nq], k)
					assertIdentical(t, labelOf("fast", c.dim, c.capacity, k, boardCounts[bi])+
						" n="+itoa(c.n)+" data="+itoa(di)+" nq="+itoa(nq), got, want[:nq])
				}
			}
		}
	}
}

// TestShardResultShapes pins what callers see at the edges in both modes: an
// empty batch is an empty non-nil result and no error; a bad k, a wrong
// dimensionality and a canceled context carry the same text prefix and
// sentinel they always have.
func TestShardResultShapes(t *testing.T) {
	rng := stats.NewRNG(29)
	ds := bitvec.RandomDataset(rng, 40, 32)
	q := []bitvec.Vector{bitvec.Random(rng, 32)}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fast := range []bool{true, false} {
		eng, err := shard.New(ds, shard.Options{Boards: 3, Capacity: 8, Fast: fast})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if got, err := eng.Query(ctx, nil, 3); err != nil || got == nil || len(got) != 0 {
			t.Errorf("fast=%v empty batch: %v, %v; want an empty non-nil result", fast, got, err)
		}
		if got := mustQueryShard(t, eng, q, 45); len(got) != 1 || len(got[0]) != 40 {
			t.Errorf("fast=%v k > n: want one list of all 40 vectors", fast)
		}
		for _, k := range []int{0, -4} {
			_, err := eng.Query(ctx, q, k)
			if !errors.Is(err, aperr.ErrBadK) || !strings.HasPrefix(err.Error(), "shard: got k=") {
				t.Errorf("fast=%v k=%d: %v, want shard's ErrBadK", fast, k, err)
			}
		}
		_, err = eng.Query(ctx, []bitvec.Vector{q[0], bitvec.Random(rng, 64)}, 3)
		if !errors.Is(err, aperr.ErrDimMismatch) || !strings.HasPrefix(err.Error(), "core: query 1 has dim 64, want 32") {
			t.Errorf("fast=%v wrong dim: %v, want core's ErrDimMismatch", fast, err)
		}
		_, err = eng.Query(canceled, q, 3)
		if !errors.Is(err, aperr.ErrCanceled) || !strings.HasPrefix(err.Error(), "query canceled") {
			t.Errorf("fast=%v canceled: %v, want ErrCanceled", fast, err)
		}
	}
}

// TestShardEquivalenceSimulated runs the cycle-accurate matrix: the sharded
// multi-board engine, the serial board Engine and the FastEngine must agree
// exactly, including tie-breaks, across dims {32, 128, 256} and board
// counts {1, 2, 4, 7}.
func TestShardEquivalenceSimulated(t *testing.T) {
	cases := []struct {
		dim, n, capacity, k int
	}{
		{dim: 32, n: 60, capacity: 9, k: 4},
		{dim: 128, n: 28, capacity: 4, k: 3},
		{dim: 256, n: 14, capacity: 2, k: 2},
	}
	for _, c := range cases {
		rng := stats.NewRNG(uint64(1000 + c.dim))
		ds := bitvec.RandomDataset(rng, c.n, c.dim)
		queries := []bitvec.Vector{bitvec.Random(rng, c.dim), bitvec.Random(rng, c.dim)}

		serial, err := core.NewEngine(ap.NewBoard(ap.Gen2()), ds, core.EngineOptions{Capacity: c.capacity})
		if err != nil {
			t.Fatal(err)
		}
		want := mustQuery(t, serial, queries, c.k)

		fast, err := core.NewFastEngine(ds, core.EngineOptions{Capacity: c.capacity})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, labelOf("fastref", c.dim, c.capacity, c.k, 1),
			mustQuery(t, fast, queries, c.k), want)

		for _, boards := range []int{1, 2, 4, 7} {
			eng, err := shard.New(ds, shard.Options{Boards: boards, Capacity: c.capacity})
			if err != nil {
				t.Fatal(err)
			}
			if eng.Partitions() != serial.Partitions() {
				t.Fatalf("sharded partitions = %d, serial = %d", eng.Partitions(), serial.Partitions())
			}
			got := mustQueryShard(t, eng, queries, c.k)
			assertIdentical(t, labelOf("sim", c.dim, c.capacity, c.k, boards), got, want)
		}
	}
}

// TestShardModeledTime checks the scaling claim: the sharded engine's
// modeled time is the maximum across its boards, and for >= 2 shards it is
// strictly less than the serial single-board sweep of the same workload.
func TestShardModeledTime(t *testing.T) {
	rng := stats.NewRNG(17)
	ds := bitvec.RandomDataset(rng, 60, 32)
	queries := []bitvec.Vector{bitvec.Random(rng, 32), bitvec.Random(rng, 32)}
	const capacity, k = 10, 3

	serialBoard := ap.NewBoard(ap.Gen1())
	serial, err := core.NewEngine(serialBoard, ds, core.EngineOptions{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, serial, queries, k)
	serialTime := serialBoard.ModeledTime()

	for _, boards := range []int{2, 4} {
		eng, err := shard.New(ds, shard.Options{Boards: boards, Capacity: capacity, Config: ap.Gen1()})
		if err != nil {
			t.Fatal(err)
		}
		mustQueryShard(t, eng, queries, k)
		got := eng.ModeledTime()
		if got <= 0 || got >= serialTime {
			t.Errorf("boards=%d: modeled time %v, want in (0, %v)", boards, got, serialTime)
		}
		// Max-across-shards by definition: equal to the slowest fleet board.
		fleet := eng.Fleet()
		var max = fleet.Board(0).ModeledTime()
		for i := 1; i < fleet.Len(); i++ {
			if tm := fleet.Board(i).ModeledTime(); tm > max {
				max = tm
			}
		}
		if got != max {
			t.Errorf("boards=%d: ModeledTime %v != max board %v", boards, got, max)
		}
	}

	// Fast mode charges the same analytic model as the single board.
	fastSerial, err := shard.New(ds, shard.Options{Boards: 1, Capacity: capacity, Fast: true, Config: ap.Gen1()})
	if err != nil {
		t.Fatal(err)
	}
	mustQueryShard(t, fastSerial, queries, k)
	if got := fastSerial.ModeledTime(); got != serialTime {
		t.Errorf("fast 1-board modeled time %v, want %v (the board's own accounting)", got, serialTime)
	}
	fast4, err := shard.New(ds, shard.Options{Boards: 4, Capacity: capacity, Fast: true, Config: ap.Gen1()})
	if err != nil {
		t.Fatal(err)
	}
	mustQueryShard(t, fast4, queries, k)
	if got := fast4.ModeledTime(); got <= 0 || got >= serialTime {
		t.Errorf("fast 4-board modeled time %v, want in (0, %v)", got, serialTime)
	}
}

// TestShardQueryExcluding: on either substrate a query without some
// positions equals the oracle over the others, IDs kept, and charges the
// meter what a plain query of the same batch does — the boards stream every
// vector either way. Fast mode refuses a dead candidate at the kernel's
// heap, sim mode drops its reports as they are decoded; both refuse a set
// that does not cover the dataset.
func TestShardQueryExcluding(t *testing.T) {
	rng := stats.NewRNG(18)
	const n, dim, capacity = 300, 64, 40
	ds := workload.TieHeavy(rng, n, dim, capacity)
	queries := []bitvec.Vector{ds.At(0).Clone(), bitvec.Random(rng, dim), ds.At(n - 1).Clone()}
	var dead bitvec.Bitset
	var live []int
	for i := 0; i < n; i++ {
		if i < 45 || i%5 == 0 { // a whole partition and more
			dead = dead.Add(i, n)
		} else {
			live = append(live, i)
		}
	}
	survivors := ds.Subset(live)
	ctx := context.Background()
	// k = n returns every survivor: a shard that read the set at the wrong
	// offset would drop live vectors of its own.
	for _, k := range []int{6, n} {
		want := make([][]knn.Neighbor, len(queries))
		for qi, q := range queries {
			want[qi] = knn.Linear(survivors, q, k)
			for j := range want[qi] {
				want[qi][j].ID = live[want[qi][j].ID]
			}
		}
		for _, fast := range []bool{true, false} {
			for _, boards := range []int{1, 4} {
				opts := shard.Options{Boards: boards, Capacity: capacity, Fast: fast}
				eng, err := shard.New(ds, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.QueryExcluding(ctx, queries, k, dead)
				if err != nil {
					t.Fatal(err)
				}
				plain, err := shard.New(ds, opts)
				if err != nil {
					t.Fatal(err)
				}
				mustQueryShard(t, plain, queries, k)
				assertIdentical(t, fmt.Sprintf("k=%d fast=%v boards=%d", k, fast, boards), got, want)
				if s, r, m := eng.SymbolsStreamed(), eng.Reconfigs(), eng.ModeledTime(); s != plain.SymbolsStreamed() || r != plain.Reconfigs() || m != plain.ModeledTime() {
					t.Errorf("fast=%v boards=%d: excluding query charged (%d, %d, %v), a plain one (%d, %d, %v)",
						fast, boards, s, r, m, plain.SymbolsStreamed(), plain.Reconfigs(), plain.ModeledTime())
				}
				if _, err := eng.QueryExcluding(ctx, queries, k, make(bitvec.Bitset, 1)); err == nil {
					t.Errorf("fast=%v boards=%d: accepted an exclusion set shorter than the dataset", fast, boards)
				}
			}
		}
	}
}

// TestShardMeterConcurrent proves the fast-mode meter under -race: scans
// hold no lock, so concurrent callers of mixed batch sizes — an empty batch
// is still a configuration sweep — overlap freely while readers sample the
// accounting, and afterwards every modeled column equals what the same calls
// charge issued serially, which in turn equals what sim mode's real boards
// counted.
func TestShardMeterConcurrent(t *testing.T) {
	rng := stats.NewRNG(19)
	ds := bitvec.RandomDataset(rng, 60, 32)
	queries := make([]bitvec.Vector, 5)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 32)
	}
	const callers, k = 8, 3
	sizes := []int{1, 5, 0, 2}
	open := func(fast bool) *shard.Engine {
		eng, err := shard.New(ds, shard.Options{Boards: 4, Capacity: 7, Fast: fast, Config: ap.Gen1()})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	serially := func(eng *shard.Engine) {
		for g := 0; g < callers; g++ {
			for _, nq := range sizes {
				mustQueryShard(t, eng, queries[:nq], k)
			}
		}
	}
	sim, serial, concurrent := open(false), open(true), open(true)
	serially(sim)
	serially(serial)

	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last time.Duration
			for {
				select {
				case <-done:
					return
				default:
				}
				now := concurrent.ModeledTime()
				if now < last {
					t.Errorf("ModeledTime went backwards: %v after %v", now, last)
					return
				}
				last = now
				concurrent.BoardTimes()
				concurrent.SymbolsStreamed()
				concurrent.Reconfigs()
			}
		}()
	}
	for g := 0; g < callers; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for _, nq := range sizes {
				if _, err := concurrent.Query(context.Background(), queries[:nq], k); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()

	for _, c := range []struct {
		name string
		eng  *shard.Engine
	}{{"fast, serial calls", serial}, {"fast, concurrent calls", concurrent}} {
		if got, want := c.eng.SymbolsStreamed(), sim.SymbolsStreamed(); got != want {
			t.Errorf("%s: SymbolsStreamed %d, boards counted %d", c.name, got, want)
		}
		if got, want := c.eng.Reconfigs(), sim.Reconfigs(); got != want {
			t.Errorf("%s: Reconfigs %d, boards counted %d", c.name, got, want)
		}
		if got, want := c.eng.BoardTimes(), sim.BoardTimes(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BoardTimes %v, boards say %v", c.name, got, want)
		}
		if got, want := c.eng.ModeledTime(), sim.ModeledTime(); got != want || got <= 0 {
			t.Errorf("%s: ModeledTime %v, boards say %v", c.name, got, want)
		}
	}
}

// TestSplit checks the shard planner invariants: full coverage, contiguity,
// boundaries on whole configurations, and balanced distribution.
func TestSplit(t *testing.T) {
	for _, c := range []struct{ n, capacity, boards int }{
		{0, 8, 4}, {5, 8, 4}, {100, 7, 1}, {100, 7, 3}, {100, 7, 100},
		{1024, 1024, 4}, {4096, 512, 7},
	} {
		ranges := shard.Split(c.n, c.capacity, c.boards)
		if c.n == 0 {
			if len(ranges) != 0 {
				t.Fatalf("Split(%v) = %v, want empty", c, ranges)
			}
			continue
		}
		if len(ranges) > c.boards {
			t.Fatalf("Split(%v) = %d shards > %d boards", c, len(ranges), c.boards)
		}
		pos := 0
		for _, r := range ranges {
			if r[0] != pos || r[1] <= r[0] {
				t.Fatalf("Split(%v): range %v not contiguous from %d", c, r, pos)
			}
			if r[0]%c.capacity != 0 {
				t.Fatalf("Split(%v): boundary %d not on a configuration", c, r[0])
			}
			pos = r[1]
		}
		if pos != c.n {
			t.Fatalf("Split(%v): covers [0,%d), want [0,%d)", c, pos, c.n)
		}
	}
}

// TestQueryBatchOrderAndErrors checks that a failing query batch fails
// alone: a wrong-dimension batch and k=0 each return their error, and the
// batches on either side of them on the same engine, in call order, still
// match the serial reference.
func TestQueryBatchOrderAndErrors(t *testing.T) {
	rng := stats.NewRNG(23)
	ds := bitvec.RandomDataset(rng, 50, 32)
	eng, err := shard.New(ds, shard.Options{Boards: 2, Capacity: 8, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.NewFastEngine(ds, core.EngineOptions{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	good0 := []bitvec.Vector{bitvec.Random(rng, 32)}
	bad := []bitvec.Vector{bitvec.Random(rng, 16)} // wrong dimensionality
	good2 := []bitvec.Vector{bitvec.Random(rng, 32), bitvec.Random(rng, 32)}

	assertIdentical(t, "before", mustQueryShard(t, eng, good0, 4), mustQuery(t, serial, good0, 4))
	if _, err := eng.Query(context.Background(), bad, 4); !errors.Is(err, aperr.ErrDimMismatch) {
		t.Fatalf("wrong-dimension batch: err = %v, want ErrDimMismatch", err)
	}
	assertIdentical(t, "after dim error", mustQueryShard(t, eng, good2, 4), mustQuery(t, serial, good2, 4))
	if _, err := eng.Query(context.Background(), good0, 0); !errors.Is(err, aperr.ErrBadK) {
		t.Fatalf("k=0: err = %v, want ErrBadK", err)
	}
	assertIdentical(t, "after k error", mustQueryShard(t, eng, good2, 4), mustQuery(t, serial, good2, 4))
}

// TestConcurrentQueryBatch hammers one engine with query batches from many
// goroutines — the -race coverage for the shared worker pool, the per-shard
// board mutexes and the fast-mode meters, sampled while queries are in
// flight. Every caller must see results identical to the serial reference.
func TestConcurrentQueryBatch(t *testing.T) {
	rng := stats.NewRNG(31)
	const dim, n, k = 64, 200, 6
	ds := bitvec.RandomDataset(rng, n, dim)
	queries := make([]bitvec.Vector, 4)
	for i := range queries {
		queries[i] = bitvec.Random(rng, dim)
	}
	serial, err := core.NewFastEngine(ds, core.EngineOptions{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Query(queries, k)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"sim", false}} {
		t.Run(mode.name, func(t *testing.T) {
			eng, err := shard.New(ds, shard.Options{Boards: 4, Workers: 2, Capacity: 32, Fast: mode.fast})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2; i++ {
						res, err := eng.Query(context.Background(), queries, k)
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(res, want) {
							errs <- errMismatch
							return
						}
						// Sampling the accounting while queries are in
						// flight must be race-free in both modes.
						if eng.ModeledTime() < 0 || eng.SymbolsStreamed() < 0 || eng.Reconfigs() < 0 {
							errs <- errMismatch
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got, want := eng.Reconfigs(), 16*eng.Partitions(); got != want {
				t.Fatalf("reconfigs = %d after 16 batches, want %d", got, want)
			}
		})
	}
}

var errMismatch = errorString("concurrent result diverged from serial reference")

type errorString string

func (e errorString) Error() string { return string(e) }

func labelOf(mode string, dim, capacity, k, boards int) string {
	return mode + " d=" + itoa(dim) + " cap=" + itoa(capacity) + " k=" + itoa(k) + " B=" + itoa(boards)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
