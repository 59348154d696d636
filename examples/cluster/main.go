// Example cluster boots a miniature multi-node fleet in one process — two
// shards, each replicated twice, behind an aprouter-style scatter-gather
// router — then proves the two cluster-tier claims: results through the
// router are byte-identical to a single index over the union dataset, and
// killing a replica degrades nothing but the replica count.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

const (
	n, dim, k = 4096, 32, 5
	shards    = 2
	replicas  = 2
)

func main() {
	ds := apknn.RandomDataset(42, n, dim)
	fmt.Printf("union dataset: %d vectors x %d bits, %d shard(s) x %d replica(s)\n",
		n, dim, shards, replicas)

	// Boot the nodes: contiguous partitions, every replica of a shard
	// serving the identical slice.
	m := &cluster.Manifest{}
	type node struct {
		hs  *http.Server
		srv *serve.Server
	}
	var nodes [][]node
	chunk := n / shards
	for s := 0; s < shards; s++ {
		part := ds.Slice(s*chunk, (s+1)*chunk)
		sh := cluster.Shard{Base: s * chunk}
		var reps []node
		for rep := 0; rep < replicas; rep++ {
			idx, err := apknn.Open(part, apknn.WithBackend(apknn.Fast))
			if err != nil {
				log.Fatal(err)
			}
			srv := serve.New(idx, serve.Config{
				Dim:     dim,
				NodeID:  fmt.Sprintf("shard%d-%c", s, 'a'+rep),
				Vectors: part.Len(),
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			hs := &http.Server{Handler: srv.Handler()}
			go func() { _ = hs.Serve(ln) }()
			reps = append(reps, node{hs: hs, srv: srv})
			sh.Replicas = append(sh.Replicas, "http://"+ln.Addr().String())
			fmt.Printf("  node shard%d-%c: %s, vectors [%d, %d)\n",
				s, 'a'+rep, ln.Addr(), s*chunk, (s+1)*chunk)
		}
		nodes = append(nodes, reps)
		m.Shards = append(m.Shards, sh)
	}

	// The router: scatter-gather with hedged reads and background probes.
	router, err := cluster.New(m, cluster.Config{
		HedgeDelay:    5 * time.Millisecond,
		ProbeInterval: 200 * time.Millisecond,
		DefaultK:      k,
		Dim:           dim,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	rsrv := &http.Server{Handler: router.Handler()}
	go func() { _ = rsrv.Serve(rln) }()
	client := serve.Client{BaseURL: "http://" + rln.Addr().String()}
	fmt.Printf("router: %s (hedge 5ms, probe every 200ms)\n\n", rln.Addr())

	// Claim 1: the cluster is indistinguishable from one big index.
	ctx := context.Background()
	queries := apknn.RandomQueries(43, 8, dim)
	exact := apknn.ExactSearch(ds, queries, k, 4)
	identical := 0
	for qi, q := range queries {
		resp, err := client.Search(ctx, q, k)
		if err != nil {
			log.Fatal(err)
		}
		got := serve.Neighbors(resp.Neighbors)
		same := len(got) == len(exact[qi])
		for j := 0; same && j < len(got); j++ {
			same = got[j] == exact[qi][j]
		}
		if same {
			identical++
		}
	}
	fmt.Printf("scatter-gather vs single-index exact scan: %d/%d queries byte-identical\n",
		identical, len(queries))

	// Claim 2: replication absorbs a node death.
	fmt.Println("\nkilling replica shard0-b ...")
	// A dead process takes its listener, its HTTP connections and the
	// router's streams with it; http.Server.Close knows only the first two.
	dead := nodes[0][1]
	dead.hs.Close()
	if err := dead.srv.Close(ctx); err != nil {
		log.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // let a probe pass notice
	stillIdentical := 0
	for qi, q := range queries {
		resp, err := client.Search(ctx, q, k)
		if err != nil {
			log.Fatal(err)
		}
		got := serve.Neighbors(resp.Neighbors)
		same := len(got) == len(exact[qi])
		for j := 0; same && j < len(got); j++ {
			same = got[j] == exact[qi][j]
		}
		if same {
			stillIdentical++
		}
	}
	st := router.Stats()
	fmt.Printf("after the kill: %d/%d queries still byte-identical\n", stillIdentical, len(queries))
	fmt.Printf("cluster stats: %d/%d replicas healthy, %d searches, %d shard calls, %d failover(s), %d hedge(s)\n",
		st.Healthy, st.Replicas, st.Searches, st.ShardCalls, st.Failovers, st.Hedges)
}
