// Sharded search: spread a dataset across four simulated AP boards with the
// Sharded backend, answer a few query batches with Search, and compare the
// modeled multi-board time against a single board — the data-parallel
// scaling story the paper's partial-reconfiguration engine (§III-C) builds
// toward.
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	apknn "repro"
)

func main() {
	ctx := context.Background()

	// 32k binary codes of 128 bits: a 32-configuration sweep on one board.
	ds := apknn.RandomDataset(7, 32<<10, 128)

	// One board, as the paper evaluates: the configuration sweep is serial.
	serial, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast))
	if err != nil {
		log.Fatal(err)
	}
	// The Sharded backend: four modeled boards by default, each owning a
	// quarter of the configurations and streaming concurrently in the
	// model; the host answers with one kernel scan of the whole dataset.
	sharded, err := apknn.Open(ds, apknn.WithBackend(apknn.Sharded), apknn.WithBoards(4))
	if err != nil {
		log.Fatal(err)
	}
	st := sharded.Stats()
	fmt.Printf("dataset: %d vectors x %d bits, %d board configurations\n",
		ds.Len(), ds.Dim(), serial.Stats().Partitions)
	fmt.Printf("sharded across %d boards (%d configurations each)\n",
		st.Boards, st.Partitions/st.Boards)

	// Each Search call is one batch: one configuration sweep on every board,
	// amortised over all of its queries. The serial board answers the same
	// batches for the modeled-time comparison, byte-identically.
	for i, seed := range []uint64{11, 12, 13} {
		qs := apknn.RandomQueries(seed, 8, 128)
		res, err := sharded.Search(ctx, qs, 5)
		if err != nil {
			log.Fatal(err)
		}
		want, err := serial.Search(ctx, qs, 5)
		if err != nil {
			log.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			log.Fatalf("batch %d: sharded and serial results differ", i)
		}
		best := res[0][0]
		fmt.Printf("batch %d: %d queries answered; first hit id=%d dist=%d\n",
			i, len(res), best.ID, best.Dist)
	}

	fmt.Printf("modeled time, 1 board:  %v\n", serial.ModeledTime())
	fmt.Printf("modeled time, 4 boards: %v\n", sharded.ModeledTime())
	fmt.Printf("modeled speedup: %.2fx\n",
		float64(serial.ModeledTime())/float64(sharded.ModeledTime()))
}
