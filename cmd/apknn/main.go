// Command apknn runs end-to-end k-nearest-neighbor search on any of the
// registered compute backends and cross-checks the result against the exact
// CPU scan.
//
//	apknn -n 2048 -dim 64 -q 8 -k 4 -gen 2
//	apknn -backend sharded -boards 4 -n 100000 -dim 128
//	apknn -backend gpu -gpu titanx
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	apknn "repro"
	"repro/internal/perfmodel"
)

func main() {
	n := flag.Int("n", 2048, "dataset size")
	dim := flag.Int("dim", 64, "code dimensionality")
	load := flag.String("load", "", "load the dataset from this binary dataset file instead of synthesizing (-n/-dim ignored)")
	save := flag.String("save", "", "save the dataset to this binary dataset file")
	q := flag.Int("q", 8, "number of queries")
	k := flag.Int("k", 4, "neighbors per query")
	gen := flag.Int("gen", 2, "AP generation (1 or 2)")
	seed := flag.Uint64("seed", 42, "random seed")
	backend := flag.String("backend", "ap", "compute backend: ap, fast, sharded, cpu, gpu, fpga, approx")
	gpuModel := flag.String("gpu", "titanx", "GPU to model with -backend gpu: titanx or tegrak1")
	idxKind := flag.String("index", "lsh", "index structure with -backend approx: lsh, kmeans or kdforest")
	probes := flag.Int("probes", 0, "candidate buckets per query with -backend approx (0 = default)")
	capacity := flag.Int("capacity", 0, "vectors per board configuration (0 = paper default)")
	boards := flag.Int("boards", 0, "shard the dataset across this many boards (0 = backend default)")
	workers := flag.Int("workers", 0, "host-side parallelism (0 = backend default)")
	timeout := flag.Duration("timeout", 0, "query deadline, e.g. 500ms (0 = none); the same context path apserve enforces per request")
	verbose := flag.Bool("v", false, "print each query's neighbors")
	flag.Parse()

	kind := apknn.BackendKind(*backend)
	generation := apknn.Gen2
	if *gen == 1 {
		generation = apknn.Gen1
	}
	var gm apknn.GPUModel
	switch *gpuModel {
	case "titanx":
		gm = apknn.TitanX
	case "tegrak1":
		gm = apknn.TegraK1
	default:
		fmt.Fprintf(os.Stderr, "apknn: unknown GPU model %q (want titanx or tegrak1)\n", *gpuModel)
		os.Exit(2)
	}
	var ik apknn.IndexKind
	switch *idxKind {
	case "lsh":
		ik = apknn.LSH
	case "kmeans":
		ik = apknn.KMeansTree
	case "kdforest":
		ik = apknn.KDForest
	default:
		fmt.Fprintf(os.Stderr, "apknn: unknown index structure %q\n", *idxKind)
		os.Exit(2)
	}

	var ds *apknn.Dataset
	if *load != "" {
		var err error
		if ds, err = apknn.LoadDataset(*load); err != nil {
			fmt.Fprintln(os.Stderr, "apknn:", err)
			os.Exit(1)
		}
		*n, *dim = ds.Len(), ds.Dim()
	} else {
		ds = apknn.RandomDataset(*seed, *n, *dim)
	}
	if *save != "" {
		if err := apknn.SaveDataset(ds, *save); err != nil {
			fmt.Fprintln(os.Stderr, "apknn:", err)
			os.Exit(1)
		}
	}
	queries := apknn.RandomQueries(*seed+1, *q, *dim)

	idx, err := apknn.Open(ds,
		apknn.WithBackend(kind),
		apknn.WithGeneration(generation),
		apknn.WithCapacity(*capacity),
		apknn.WithBoards(*boards),
		apknn.WithWorkers(*workers),
		apknn.WithGPUModel(gm),
		apknn.WithIndex(ik),
		apknn.WithProbes(*probes),
		apknn.WithSeed(*seed+2),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apknn:", err)
		os.Exit(1)
	}

	// Ctrl-C cancels the in-flight batch instead of killing the process;
	// -timeout additionally bounds the whole query with a deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	results, err := idx.Search(ctx, queries, *k)
	if err != nil {
		switch {
		case errors.Is(err, apknn.ErrCanceled) && errors.Is(ctx.Err(), context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "apknn: timed out after %v: %v\n", *timeout, err)
		case errors.Is(err, apknn.ErrCanceled):
			fmt.Fprintln(os.Stderr, "apknn: interrupted:", err)
		default:
			fmt.Fprintln(os.Stderr, "apknn:", err)
		}
		os.Exit(1)
	}
	st := idx.Stats()
	if st.Partitions > 0 && kind != apknn.Approx {
		fmt.Printf("dataset: %d vectors x %d bits, %d board configuration(s) across %d board(s) on %s\n",
			*n, *dim, st.Partitions, st.Boards, generation)
	} else {
		fmt.Printf("dataset: %d vectors x %d bits on backend %q\n", *n, *dim, kind)
	}

	reference := apknn.ExactSearch(ds, queries, *k, 4)
	agree := 0
	recall := 0.0
	for qi := range queries {
		match := len(results[qi]) == len(reference[qi])
		if match {
			for j := range results[qi] {
				if results[qi][j] != reference[qi][j] {
					match = false
					break
				}
			}
		}
		if match {
			agree++
		}
		recall += apknn.Recall(results[qi], reference[qi])
		if *verbose {
			fmt.Printf("query %d:\n", qi)
			for rank, nb := range results[qi] {
				fmt.Printf("  #%d id=%d hamming=%d\n", rank+1, nb.ID, nb.Dist)
			}
		}
	}
	exactBackend := kind != apknn.Approx
	if exactBackend {
		fmt.Printf("AP result agreement with exact CPU scan: %d/%d queries\n", agree, len(queries))
	} else {
		fmt.Printf("recall@%d vs exact CPU scan: %.2f (scanned %d candidates; index spans %d buckets)\n",
			*k, recall/float64(len(queries)), st.CandidatesScanned, st.Partitions)
	}
	if t := idx.ModeledTime(); t > 0 {
		fmt.Printf("modeled %s time: %v\n", kind, t)
	}
	if st.SymbolsStreamed > 0 {
		fmt.Printf("stats: %d queries, %d batches, %d symbol cycles, %d reconfiguration(s)\n",
			st.Queries, st.Batches, st.SymbolsStreamed, st.Reconfigs)
	}
	armTime := perfmodel.CPUTime(perfmodel.CortexA15(), *n, *q, *dim)
	fmt.Printf("modeled ARM Cortex A15 time for the same batch: %v\n", armTime)
	if exactBackend && agree != len(queries) {
		os.Exit(1)
	}
}
