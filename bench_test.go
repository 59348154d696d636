// Benchmarks regenerating the paper's evaluation, one per table and figure
// (see README.md's experiment index). Each BenchmarkTableN/BenchmarkFigN
// exercises the code path that reproduces that experiment; the analytic
// table builders print paper-vs-reproduced numbers once per run via the
// bench harness in cmd/apbench. Micro-benchmarks at the bottom measure this
// machine's real throughput for the executable substrates.
package apknn_test

import (
	"context"
	"testing"

	apknn "repro"
	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/knn"
	"repro/internal/perfmodel"
	"repro/internal/quantize"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ---- Table I / II: inventory (model evaluation only) ----

func BenchmarkTable1Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(perfmodel.Platforms()) != 6 {
			b.Fatal("platform table wrong")
		}
	}
}

func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(workload.All()) != 3 {
			b.Fatal("workload table wrong")
		}
	}
}

// ---- Table III: small-dataset kNN across platforms ----

// BenchmarkTable3Model evaluates every analytic cell of Table III.
func BenchmarkTable3Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(perfmodel.Table3()) != 15 {
			b.Fatal("table 3 shape wrong")
		}
	}
}

// BenchmarkTable3APSimulated runs the real cycle-accurate AP engine on a
// scaled-down WordEmbed-small instance (full 1024x4096 is a model-only
// workload; the simulator exercises identical code paths at this scale).
func BenchmarkTable3APSimulated(b *testing.B) {
	ds := apknn.RandomDataset(1, 256, 64)
	queries := apknn.RandomQueries(2, 4, 64)
	idx, err := apknn.Open(ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Search(context.Background(), queries, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3CPUMeasured measures this machine's real Hamming-scan
// throughput at the Table III workload points.
func BenchmarkTable3CPUMeasured(b *testing.B) {
	for _, w := range workload.All() {
		b.Run(w.Name, func(b *testing.B) {
			rng := stats.NewRNG(3)
			ds := bitvec.RandomDataset(rng, w.SmallN, w.Dim)
			q := bitvec.Random(rng, w.Dim)
			b.SetBytes(int64(w.SmallN * w.Dim / 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				knn.Linear(ds, q, w.K)
			}
		})
	}
}

// ---- Table IV: large datasets with partial reconfiguration ----

func BenchmarkTable4Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(perfmodel.Table4()) != 24 {
			b.Fatal("table 4 shape wrong")
		}
	}
}

// BenchmarkTable4Reconfiguration runs the fast engine over a multi-partition
// dataset, the §III-C merging path of Table IV.
func BenchmarkTable4Reconfiguration(b *testing.B) {
	ds := apknn.RandomDataset(4, 1<<14, 64)
	queries := apknn.RandomQueries(5, 16, 64)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast))
	if err != nil {
		b.Fatal(err)
	}
	if p := idx.Stats().Partitions; p != 16 {
		b.Fatalf("partitions = %d", p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Search(context.Background(), queries, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table V: spatial indexing structures ----

func BenchmarkTable5Model(b *testing.B) {
	w := workload.TagSpace()
	models := perfmodel.IndexingModels()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			perfmodel.IndexingSpeedup(perfmodel.APGen1(), m, w.LargeN, w.Queries, w.Dim)
		}
	}
}

func BenchmarkTable5IndexSearch(b *testing.B) {
	rng := stats.NewRNG(6)
	ds := workload.Clustered(rng, 32, 64, 64, 4)
	q := bitvec.Random(rng, 64)
	kd, err := index.BuildKDForest(ds, index.DefaultKDForestConfig(64), rng)
	if err != nil {
		b.Fatal(err)
	}
	km, err := index.BuildKMeansTree(ds, index.DefaultKMeansConfig(64), rng)
	if err != nil {
		b.Fatal(err)
	}
	lsh, err := index.BuildLSH(ds, index.DefaultLSHConfig(ds.Len(), 64), rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		idx  index.Index
	}{{"KDForest", kd}, {"KMeansTree", km}, {"MPLSH", lsh}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				index.Search(ds, c.idx, q, 16, 8, nil)
			}
		})
	}
}

// ---- Table VI: statistical activation reduction Monte Carlo ----

func BenchmarkTable6Reduction(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    core.SuppressionMode
	}{{"Strict", core.SuppressStrict}, {"Faithful", core.SuppressFaithful}} {
		b.Run(mode.name, func(b *testing.B) {
			rng := stats.NewRNG(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.RunReduction(core.ReductionExperiment{
					Dim: 64, N: 1024, P: 16, K: 2, KPrime: 2, Runs: 5, Mode: mode.m,
				}, rng)
			}
		})
	}
}

// ---- Table VII: STE decomposition analysis ----

func BenchmarkTable7Decomposition(b *testing.B) {
	net := automata.NewNetwork()
	core.BuildMacro(net, bitvec.Random(stats.NewRNG(8), 128), core.NewLayout(128), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.AnalyzeDecomposition(net)
		if rep.Savings(4) < 1 {
			b.Fatal("bad savings")
		}
	}
}

// ---- Table VIII: compounded gains ----

func BenchmarkTable8Gains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workload.All() {
			perfmodel.ComputeOptExtGains(w.Dim)
		}
	}
}

// ---- §V-A utilization / compilation ----

func BenchmarkCompileWordEmbedBoard(b *testing.B) {
	rng := stats.NewRNG(9)
	ds := bitvec.RandomDataset(rng, core.DefaultBoardCapacity(64), 64)
	net := automata.NewNetwork()
	core.BuildLinear(net, ds, core.NewLayout(64))
	cfg := ap.Gen1()
	cfg.CompilerAreaFactor = ap.PaperAreaFactor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ap.Compile(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 3/4: cycle-accurate macro execution ----

func BenchmarkFig3MacroTrace(b *testing.B) {
	l := core.PaperLayout(4)
	net := automata.NewNetwork()
	v, _ := bitvec.ParseBits("1011")
	q, _ := bitvec.ParseBits("1001")
	core.BuildMacro(net, v, l, 0)
	sim := automata.MustSimulator(net)
	stream := core.BuildQueryStream(q, l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := sim.Run(stream); len(got) != 1 {
			b.Fatal("trace broke")
		}
	}
}

// ---- Fig. 5: vector packing ----

func BenchmarkFig5Packing(b *testing.B) {
	for _, dim := range []int{32, 64, 128} {
		b.Run(itoa(dim), func(b *testing.B) {
			rng := stats.NewRNG(uint64(dim))
			ds := bitvec.RandomDataset(rng, 8, dim)
			l := core.NewLayout(dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net := automata.NewNetwork()
				core.BuildPacked(net, ds, l, 0)
				if _, err := ap.Compile(net, ap.Gen1()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Fig. 6: symbol stream multiplexing ----

func BenchmarkFig6Multiplexing(b *testing.B) {
	rng := stats.NewRNG(10)
	ds := bitvec.RandomDataset(rng, 8, 16)
	l := core.NewLayout(16)
	net := automata.NewNetwork()
	core.BuildMux(net, ds, l, 7)
	sim := automata.MustSimulator(net)
	queries := workload.Queries(rng, 7, 16)
	stream := core.BuildMuxStream(queries, l, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(stream)
	}
}

// ---- Fig. 7: reduction automaton ----

func BenchmarkFig7ReductionGroup(b *testing.B) {
	rng := stats.NewRNG(11)
	ds := bitvec.RandomDataset(rng, 16, 32)
	l := core.NewLayout(32)
	net := automata.NewNetwork()
	core.BuildReductionGroup(net, ds, l, 2, 0)
	sim := automata.MustSimulator(net)
	stream := core.BuildQueryStream(bitvec.Random(rng, 32), l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(stream)
	}
}

// ---- Fig. 8: dynamic-threshold comparison ----

func BenchmarkFig8Comparison(b *testing.B) {
	net := automata.NewNetwork()
	enA := net.AddSTE(automata.SingleClass('a'), automata.WithStart(automata.StartAll))
	enB := net.AddSTE(automata.SingleClass('b'), automata.WithStart(automata.StartAll))
	rst := net.AddSTE(automata.SingleClass('r'), automata.WithStart(automata.StartAll))
	core.BuildComparisonMacro(net, enA, enB, rst, 1)
	sim := automata.MustSimulator(net)
	stream := []byte("aababaabbr")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(stream)
	}
}

// ---- §II-C Jaccard and §VI-C reduction engine ----

func BenchmarkJaccardMacro(b *testing.B) {
	rng := stats.NewRNG(20)
	l := core.NewLayout(64)
	net := automata.NewNetwork()
	core.BuildJaccardMacro(net, bitvec.Random(rng, 64), l, 0)
	sim := automata.MustSimulator(net)
	stream := core.BuildQueryStream(bitvec.Random(rng, 64), l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(stream)
	}
}

func BenchmarkApproxEngine(b *testing.B) {
	rng := stats.NewRNG(21)
	ds := bitvec.RandomDataset(rng, 64, 32)
	queries := workload.Queries(rng, 2, 32)
	board := ap.NewBoard(ap.Gen2())
	eng, err := core.NewApproxEngine(board, ds, core.EngineOptions{Capacity: 64}, 16, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(queries, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Sharded multi-board engine ----

// BenchmarkShardedFastEngine measures the host cost of the fast substrate at
// n=100k, d=128 across board counts. Boards are a modeling concept there —
// the host runs one blocked kernel scan of the whole dataset whatever the
// fleet size — so ns/op and allocs/op should be flat across the sub-benchmarks;
// the scaling with boards is in the modeled time (see internal/shard), which
// is machine-independent.
func BenchmarkShardedFastEngine(b *testing.B) {
	ds := apknn.RandomDataset(30, 100_000, 128)
	queries := apknn.RandomQueries(31, 16, 128)
	for _, boards := range []int{1, 2, 4, 8} {
		b.Run("Boards"+itoa(boards), func(b *testing.B) {
			idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast), apknn.WithBoards(boards))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(context.Background(), queries, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations and substrate micro-benchmarks ----

// BenchmarkSortAblation compares the three host-side top-k strategies the
// paper discusses (§III-B): full sort, bounded heap, k-selection.
func BenchmarkSortAblation(b *testing.B) {
	rng := stats.NewRNG(12)
	ds := bitvec.RandomDataset(rng, 1<<14, 64)
	q := bitvec.Random(rng, 64)
	b.Run("FullSort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			knn.LinearFullSort(ds, q, 16)
		}
	})
	b.Run("BoundedHeap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			knn.Linear(ds, q, 16)
		}
	})
	b.Run("QuickSelect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			knn.LinearSelect(ds, q, 16)
		}
	})
}

// BenchmarkLayoutAblation compares the paper-exact stream layout against the
// monotonic default (the README.md timing-hazard fix costs a few extra
// cycles per query).
func BenchmarkLayoutAblation(b *testing.B) {
	rng := stats.NewRNG(13)
	v := bitvec.Random(rng, 64)
	q := bitvec.Random(rng, 64)
	for _, c := range []struct {
		name string
		l    core.Layout
	}{{"PaperExact", core.PaperLayout(64)}, {"Monotonic", core.NewLayout(64)}} {
		b.Run(c.name, func(b *testing.B) {
			net := automata.NewNetwork()
			core.BuildMacro(net, v, c.l, 0)
			sim := automata.MustSimulator(net)
			stream := core.BuildQueryStream(q, c.l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Run(stream)
			}
		})
	}
}

func BenchmarkHammingDistance(b *testing.B) {
	rng := stats.NewRNG(14)
	for _, w := range workload.All() {
		b.Run(w.Name, func(b *testing.B) {
			x := bitvec.Random(rng, w.Dim)
			y := bitvec.Random(rng, w.Dim)
			b.SetBytes(int64(w.Dim / 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Hamming(y)
			}
		})
	}
}

func BenchmarkAPSimulatorThroughput(b *testing.B) {
	rng := stats.NewRNG(15)
	ds := bitvec.RandomDataset(rng, 64, 64)
	l := core.NewLayout(64)
	net := automata.NewNetwork()
	core.BuildLinear(net, ds, l)
	sim := automata.MustSimulator(net)
	stream := core.BuildQueryStream(bitvec.Random(rng, 64), l)
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(stream)
	}
}

func BenchmarkFPGAAccelerator(b *testing.B) {
	benchScanBackend(b, 16, apknn.WithBackend(apknn.FPGA))
}

func BenchmarkGPUModel(b *testing.B) {
	benchScanBackend(b, 17, apknn.WithBackend(apknn.GPU), apknn.WithGPUModel(apknn.TitanX))
}

// benchScanBackend times one 16-query batch, k=4, over 1024 64-bit vectors
// on a backend opened through apknn.Open.
func benchScanBackend(b *testing.B, seed uint64, opts ...apknn.Option) {
	rng := stats.NewRNG(seed)
	ds := bitvec.RandomDataset(rng, 1024, 64)
	queries := workload.Queries(rng, 16, 64)
	idx, err := apknn.Open(ds, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Search(context.Background(), queries, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkITQTraining(b *testing.B) {
	rng := stats.NewRNG(18)
	data, _ := workload.GaussianFeatures(rng, 4, 50, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quantize.TrainITQ(data, quantize.ITQConfig{Bits: 16, Iters: 10}, stats.NewRNG(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	rng := stats.NewRNG(19)
	ds := bitvec.RandomDataset(rng, 4096, 64)
	b.Run("LSH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := index.BuildLSH(ds, index.DefaultLSHConfig(ds.Len(), 512), stats.NewRNG(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("KDForest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := index.BuildKDForest(ds, index.DefaultKDForestConfig(512), stats.NewRNG(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLiveSearchChurn is one search of a live index over the cpu
// backend (32768x64, k=8, compaction off) with churn pending. churnN is N
// inserts and N deletes-of-the-oldest, the live_churn workload's steady
// state just before a compaction: N delta entries to scan beside the base
// and N base-resident tombstones, in a run at its front, to leave out.
// delN is the tombstones alone, insN the delta alone. The tombstones are
// excluded in the kernel and their run stepped over a word at a time, and
// the delta scan is seeded with the base's k-th neighbor, so every cell
// stays near churn0 and allocates what it does (the result table and
// list). When the base was over-fetched by N and filtered, churn511 cost
// 274 us and 10 KB against churn0's 7.5 us.
func BenchmarkLiveSearchChurn(b *testing.B) {
	ds := apknn.RandomDataset(7, 32768, 64)
	queries := apknn.RandomQueries(8, 64, 64)
	ctx := context.Background()
	for _, c := range []struct {
		name             string
		inserts, deletes int
	}{
		{"churn0", 0, 0}, {"del511", 0, 511}, {"ins511", 511, 0},
		{"churn64", 64, 64}, {"churn256", 256, 256}, {"churn511", 511, 511},
	} {
		b.Run(c.name, func(b *testing.B) {
			idx, err := apknn.OpenLive(ds, apknn.WithBackend(apknn.CPU), apknn.WithCompactThreshold(-1))
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			for _, v := range apknn.RandomQueries(9, c.inserts, 64) {
				if _, err := idx.Insert(ctx, v); err != nil {
					b.Fatal(err)
				}
			}
			for id := 0; id < c.deletes; id++ {
				if err := idx.Delete(ctx, id); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(ctx, queries[i%len(queries):i%len(queries)+1], 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if i == len(buf) {
		return "0"
	}
	return string(buf[i:])
}
