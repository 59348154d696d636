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

// mustQuery answers a batch on the serial reference model.
func mustQuery(t *testing.T, e *core.FastEngine, queries []bitvec.Vector, k int) [][]knn.Neighbor {
	t.Helper()
	res, err := e.Query(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustQueryShard(t *testing.T, e *shard.Engine, queries []bitvec.Vector, k int) [][]knn.Neighbor {
	t.Helper()
	res, err := e.QueryExcluding(context.Background(), queries, k, nil)
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

// TestShardResultShapes pins what callers see at the edges: an empty batch
// is an empty non-nil result and no error; a bad k, a wrong dimensionality
// and a canceled context carry the same text prefix and sentinel they
// always have.
func TestShardResultShapes(t *testing.T) {
	rng := stats.NewRNG(29)
	ds := bitvec.RandomDataset(rng, 40, 32)
	q := []bitvec.Vector{bitvec.Random(rng, 32)}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := shard.New(ds, shard.Options{Boards: 3, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got, err := eng.QueryExcluding(ctx, nil, 3, nil); err != nil || got == nil || len(got) != 0 {
		t.Errorf("empty batch: %v, %v; want an empty non-nil result", got, err)
	}
	if got := mustQueryShard(t, eng, q, 45); len(got) != 1 || len(got[0]) != 40 {
		t.Errorf("k > n: want one list of all 40 vectors")
	}
	for _, k := range []int{0, -4} {
		_, err := eng.QueryExcluding(ctx, q, k, nil)
		if !errors.Is(err, aperr.ErrBadK) || !strings.HasPrefix(err.Error(), "shard: got k=") {
			t.Errorf("k=%d: %v, want shard's ErrBadK", k, err)
		}
	}
	_, err = eng.QueryExcluding(ctx, []bitvec.Vector{q[0], bitvec.Random(rng, 64)}, 3, nil)
	if !errors.Is(err, aperr.ErrDimMismatch) || !strings.HasPrefix(err.Error(), "core: query 1 has dim 64, want 32") {
		t.Errorf("wrong dim: %v, want core's ErrDimMismatch", err)
	}
	_, err = eng.QueryExcluding(canceled, q, 3, nil)
	if !errors.Is(err, aperr.ErrCanceled) || !strings.HasPrefix(err.Error(), "query canceled") {
		t.Errorf("canceled: %v, want ErrCanceled", err)
	}
}

// TestShardEquivalenceSimulated runs the cycle-accurate matrix: the sharded
// multi-board engine must agree exactly with the FastEngine, including
// tie-breaks, across dims {32, 128, 256} and board counts {1, 2, 4, 7}, and
// split the dataset into as many partitions as the serial board Engine.
// core's TestFastEngineMatchesEngine ties the FastEngine to that Engine.
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
		fast, err := core.NewFastEngine(ds, core.EngineOptions{Capacity: c.capacity})
		if err != nil {
			t.Fatal(err)
		}
		want := mustQuery(t, fast, queries, c.k)

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
// The meter charges the same model: one board of it is the serial board's
// own accounting, and four are as fast as four simulated boards.
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
	batch, err := core.EncodeBatch(queries, core.NewLayout(ds.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.QueryEncoded(context.Background(), batch, k, nil, 0); err != nil {
		t.Fatal(err)
	}
	serialTime := serialBoard.ModeledTime()

	for _, boards := range []int{1, 2, 4} {
		opts := shard.Options{Boards: boards, Capacity: capacity, Config: ap.Gen1()}
		eng, err := shard.New(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustQueryShard(t, eng, queries, k)
		got := eng.ModeledTime()
		if boards == 1 && got != serialTime {
			t.Errorf("1 board: modeled time %v, want the serial board's %v", got, serialTime)
		}
		if boards > 1 && (got <= 0 || got >= serialTime) {
			t.Errorf("boards=%d: modeled time %v, want in (0, %v)", boards, got, serialTime)
		}
		// Max-across-shards by definition: equal to the slowest board.
		var max time.Duration
		for _, tm := range eng.BoardTimes() {
			if tm > max {
				max = tm
			}
		}
		if got != max {
			t.Errorf("boards=%d: ModeledTime %v != max board %v", boards, got, max)
		}

		meter := newMeter(t, ds, opts)
		meter.Charge(len(queries))
		if r := meter.Read(); r.ModeledTime != got || !reflect.DeepEqual(r.BoardTimes, eng.BoardTimes()) {
			t.Errorf("boards=%d: meter charged %v over %v, the boards %v over %v",
				boards, r.ModeledTime, r.BoardTimes, got, eng.BoardTimes())
		}
	}
}

// TestShardQueryExcluding: a query without some positions equals the oracle
// over the others, IDs kept, and the boards are charged what a plain query
// of the same batch costs — they stream every vector either way, which is
// what the meter charges for any answered batch. The host drops a dead
// vector's reports as they are decoded; a set that does not cover the
// dataset is refused.
func TestShardQueryExcluding(t *testing.T) {
	rng := stats.NewRNG(18)
	const n, dim, capacity = 300, 64, 40
	ds := workload.TieHeavy(rng, n, dim, capacity)
	queries := []bitvec.Vector{ds.At(0).Clone(), bitvec.Random(rng, dim), ds.At(n - 1).Clone()}
	var dead bitvec.Bitset
	var live []int
	survivors := bitvec.NewDataset(dim)
	for i := 0; i < n; i++ {
		if i < 45 || i%5 == 0 { // a whole partition and more
			dead = dead.Add(i, n)
		} else {
			live = append(live, i)
			survivors.Append(ds.At(i))
		}
	}
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
		for _, boards := range []int{1, 4} {
			opts := shard.Options{Boards: boards, Capacity: capacity}
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
			meter := newMeter(t, ds, opts)
			meter.Charge(len(queries))
			assertIdentical(t, fmt.Sprintf("k=%d boards=%d", k, boards), got, want)
			for _, c := range []struct {
				name string
				r    shard.Reading
			}{{"a plain query", readEngine(plain)}, {"the meter", meter.Read()}} {
				if r := readEngine(eng); !reflect.DeepEqual(r, c.r) {
					t.Errorf("boards=%d: excluding query charged %+v, %s %+v", boards, r, c.name, c.r)
				}
			}
			if _, err := eng.QueryExcluding(ctx, queries, k, make(bitvec.Bitset, 1)); err == nil {
				t.Errorf("boards=%d: accepted an exclusion set shorter than the dataset", boards)
			}
		}
	}
}

// TestShardMeterConcurrent holds the meter to the simulated boards: batches
// of mixed sizes — an empty batch is still a configuration sweep — charged
// serially and from 8 goroutines at once, leave every modeled column equal
// to what real boards counted answering the same batches. Readers sample
// the meter meanwhile: its modeled time never decreases, and every reading
// is one (queries, batches) pair — no board shows symbols without their
// reconfigurations.
func TestShardMeterConcurrent(t *testing.T) {
	rng := stats.NewRNG(19)
	ds := bitvec.RandomDataset(rng, 60, 32)
	queries := make([]bitvec.Vector, 5)
	for i := range queries {
		queries[i] = bitvec.Random(rng, 32)
	}
	const callers, k = 8, 3
	sizes := []int{1, 5, 0, 2}
	opts := shard.Options{Boards: 4, Capacity: 7, Config: ap.Gen1()}
	sim, err := shard.New(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	serial, concurrent := newMeter(t, ds, opts), newMeter(t, ds, opts)
	for g := 0; g < callers; g++ {
		for _, nq := range sizes {
			mustQueryShard(t, sim, queries[:nq], k)
			serial.Charge(nq)
		}
	}

	// A reading is consistent when one (queries, batches) pair explains
	// every board: board i of parts p streamed p·queries·StreamLen symbols
	// and loaded p·batches configurations.
	parts := make([]int, concurrent.Shards())
	for i, r := range shard.Split(ds.Len(), 7, 4) {
		parts[i] = (r[1] - r[0] + 6) / 7
	}
	streamLen := core.NewLayout(32).StreamLen()
	consistent := func(r shard.Reading) error {
		total := concurrent.Partitions()
		if r.SymbolsStreamed%(total*streamLen) != 0 || r.Reconfigs%total != 0 {
			return fmt.Errorf("totals %d symbols, %d reconfigs are no whole sweep of %d configurations", r.SymbolsStreamed, r.Reconfigs, total)
		}
		q, b := r.SymbolsStreamed/(total*streamLen), r.Reconfigs/total
		if q > len(queries)*b {
			return fmt.Errorf("%d queries charged over %d batches of at most %d", q, b, len(queries))
		}
		for i, p := range parts {
			if want := ap.Gen1().ModeledTime(p*q*streamLen, p*b); r.BoardTimes[i] != want {
				return fmt.Errorf("board %d reads %v, its share of (%d queries, %d batches) is %v", i, r.BoardTimes[i], q, b, want)
			}
		}
		return nil
	}

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
				now := concurrent.Read()
				if now.ModeledTime < last {
					t.Errorf("ModeledTime went backwards: %v after %v", now.ModeledTime, last)
					return
				}
				if err := consistent(now); err != nil {
					t.Error(err)
					return
				}
				last = now.ModeledTime
			}
		}()
	}
	for g := 0; g < callers; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for _, nq := range sizes {
				concurrent.Charge(nq)
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()

	want := readEngine(sim)
	if want.ModeledTime <= 0 {
		t.Fatalf("the boards counted no time: %+v", want)
	}
	for _, c := range []struct {
		name  string
		meter *shard.Meter
	}{{"serial charges", serial}, {"concurrent charges", concurrent}} {
		if got := c.meter.Read(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: meter reads %+v, the boards counted %+v", c.name, got, want)
		}
		if c.meter.Shards() != sim.Shards() || c.meter.Partitions() != sim.Partitions() {
			t.Errorf("%s: meter plans %d boards of %d configurations, the engine %d of %d",
				c.name, c.meter.Shards(), c.meter.Partitions(), sim.Shards(), sim.Partitions())
		}
	}
}

// TestMeterRefusesWhatNewRefuses: both fleets resolve the same plan, so an
// option New refuses the meter refuses too.
func TestMeterRefusesWhatNewRefuses(t *testing.T) {
	ds := bitvec.RandomDataset(stats.NewRNG(20), 30, 32)
	for _, opts := range []shard.Options{{Boards: -3}, {Workers: -1}, {Capacity: -5}} {
		if _, err := shard.New(ds, opts); err == nil {
			t.Errorf("New accepted %+v", opts)
		}
		if _, err := shard.NewMeter(ds, opts); err == nil {
			t.Errorf("NewMeter accepted %+v", opts)
		}
	}
}

func newMeter(t *testing.T, ds *bitvec.Dataset, opts shard.Options) *shard.Meter {
	t.Helper()
	m, err := shard.NewMeter(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readEngine reads what a simulated fleet's boards counted as a meter
// Reading. Only quiescent engines: the columns are read one at a time.
func readEngine(e *shard.Engine) shard.Reading {
	return shard.Reading{
		SymbolsStreamed: e.SymbolsStreamed(),
		Reconfigs:       e.Reconfigs(),
		BoardTimes:      e.BoardTimes(),
		ModeledTime:     e.ModeledTime(),
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
	eng, err := shard.New(ds, shard.Options{Boards: 2, Capacity: 8})
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
	if _, err := eng.QueryExcluding(context.Background(), bad, 4, nil); !errors.Is(err, aperr.ErrDimMismatch) {
		t.Fatalf("wrong-dimension batch: err = %v, want ErrDimMismatch", err)
	}
	assertIdentical(t, "after dim error", mustQueryShard(t, eng, good2, 4), mustQuery(t, serial, good2, 4))
	if _, err := eng.QueryExcluding(context.Background(), good0, 0, nil); !errors.Is(err, aperr.ErrBadK) {
		t.Fatalf("k=0: err = %v, want ErrBadK", err)
	}
	assertIdentical(t, "after k error", mustQueryShard(t, eng, good2, 4), mustQuery(t, serial, good2, 4))
}

// TestConcurrentQueryBatch hammers one engine with query batches from many
// goroutines — the -race coverage for the shared worker pool and the
// per-shard board mutexes, sampled while queries are in flight. Every
// caller must see results identical to the serial reference. (The meter's
// concurrency is TestShardMeterConcurrent's.)
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

	t.Run("sim", func(t *testing.T) {
		eng, err := shard.New(ds, shard.Options{Boards: 4, Workers: 2, Capacity: 32})
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
					res, err := eng.QueryExcluding(context.Background(), queries, k, nil)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(res, want) {
						errs <- errMismatch
						return
					}
					// Sampling the accounting while queries are in
					// flight must be race-free.
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
