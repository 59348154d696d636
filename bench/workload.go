package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	apknn "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// clients is the closed-loop width of every workload: one caller on one
// connection, waiting for each reply. Callers of this system — router legs,
// library users, batch jobs — wait for their answer, and on a 2-core box a
// second client plus router plus two shards saturates both cores, which
// made the routed p99 move 21 % between runs against 3 % with one client.
const clients = 1

// spec is one workload: a fixed shape of data, topology and request stream.
type spec struct {
	name string
	// n vectors of dim bits; every search asks for k neighbors.
	n, dim, k int
	// batch is the number of queries per request: 1 goes through
	// POST /v1/search and the micro-batcher, more through /v1/search_batch.
	batch   int
	backend apknn.BackendKind
	// shards > 0 puts an aprouter in front of that many single-replica
	// nodes, the set split evenly.
	shards int
	// live serves a durable mutable index and mixes writes into the stream.
	live bool
	// warmup is how many requests a fresh node answers before it counts as
	// warm; it is part of setup_s and sized so set-up is seconds, not jitter.
	warmup int
	// block is how many requests the closed loop sends between two probes of
	// the host's speed: about a tenth of a second of them.
	block int
	// replays is how many requests a traced run replays at every depth.
	replays int
	// oracleEvery samples one search query in this many for the
	// after-the-run comparison with the brute-force oracle (0: the workload
	// mutates, so it is checked against its mirror in rounds instead).
	oracleEvery int
}

// The four workloads. Names are fixed: later issues cite them.
var specs = []spec{
	{name: "serve_ap", n: 32768, dim: 64, k: 8, batch: 1, backend: apknn.Sharded,
		warmup: 6000, block: 256, replays: 4000, oracleEvery: 16},
	{name: "kernel_large", n: 1 << 20, dim: 128, k: 16, batch: 8, backend: apknn.CPU,
		warmup: 250, block: 16, replays: 150, oracleEvery: 64},
	{name: "routed", n: 32768, dim: 64, k: 8, batch: 1, backend: apknn.CPU, shards: 2,
		warmup: 6000, block: 256, replays: 4000, oracleEvery: 16},
	{name: "live_churn", n: 32768, dim: 64, k: 8, batch: 1, backend: apknn.CPU, live: true,
		warmup: 6144, block: 256, replays: 4000},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func specNames() string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return strings.Join(names, ", ")
}

// inputs is everything a run derives from its seed before any timer starts.
type inputs struct {
	data *vectors
	// blobs are the APDS bytes handed to the program, one per serving node.
	blobs [][]byte
}

func genInputs(sp spec, seed uint64) inputs {
	in := inputs{data: genVectors(newRNG(seed, streamDataset), sp.n, sp.dim)}
	parts := sp.parts()
	for p := 0; p < parts; p++ {
		in.blobs = append(in.blobs, in.data.apds(p*sp.n/parts, (p+1)*sp.n/parts))
	}
	return in
}

func (sp spec) parts() int {
	if sp.shards > 0 {
		return sp.shards
	}
	return 1
}

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(ln net.Listener, h http.Handler) *listener {
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return l
}

func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
}

// node is one apserve-shaped process image: index, serving layer, listener.
type node struct {
	ds  *apknn.Dataset
	idx apknn.Index
	srv *serve.Server
	l   *listener
}

// env is a booted system under test plus the benchmark's view of its data.
type env struct {
	sp spec
	// data is the benchmark's own copy; on live_churn it grows with every
	// insert and [lo, data.len()) are the live IDs, because deletes go
	// oldest-first.
	data *vectors
	lo   int

	nodes     []*node
	live      *apknn.LiveIndex
	dir       string
	router    *cluster.Router
	routerL   *listener
	transport *http.Transport
	client    *serve.Client

	// What boot spent where, for the per-layer table.
	loadMS, openMS, resolveMS float64
}

// indexOptions is the option list apserve passes to Open for this backend
// with its flags at their defaults.
func indexOptions(sp spec) []apknn.Option {
	return []apknn.Option{
		apknn.WithBackend(sp.backend),
		apknn.WithGeneration(apknn.Gen2),
		apknn.WithCapacity(0),
		apknn.WithBoards(0),
		apknn.WithWorkers(0),
	}
}

// liveOptions adds what `apserve -live -data-dir dir -fsync never
// -compact-interval 0` adds: the default compaction threshold, no timer.
func liveOptions(sp spec, dir string) []apknn.Option {
	return append(indexOptions(sp),
		apknn.WithCompactThreshold(0),
		apknn.WithCompactInterval(0),
		apknn.WithDurability(dir, apknn.DurabilityOptions{Fsync: apknn.FsyncNever}))
}

// boot builds the system the way apserve and aprouter do — ReadDataset,
// Open or OpenLive, serve.New behind a listener, and for a routed workload
// ParseTopology + ResolveBases + cluster.New — with coalescing, probes and
// hedging off: one client never coalesces, and probes and hedges are
// background traffic that would only add noise.
func boot(sp spec, in inputs, dir string) (_ *env, err error) {
	e := &env{sp: sp, data: in.data, dir: dir}
	defer func() {
		if err != nil {
			e.close() // whatever was started before the failure
		}
	}()
	var urls []string
	for p, blob := range in.blobs {
		t0 := time.Now()
		ds, err := apknn.ReadDataset(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("read dataset: %w", err)
		}
		e.loadMS += ms(time.Since(t0))

		t0 = time.Now()
		var idx apknn.Index
		if sp.live {
			e.live, err = apknn.OpenLive(ds, liveOptions(sp, dir)...)
			idx = e.live
		} else {
			idx, err = apknn.Open(ds, indexOptions(sp)...)
		}
		if err != nil {
			return nil, fmt.Errorf("open index: %w", err)
		}
		e.openMS += ms(time.Since(t0))

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		srv := serve.New(idx, serve.Config{
			MaxBatch:    32,
			BatchWindow: 0,
			MaxInFlight: 256,
			DefaultK:    10,
			Dim:         ds.Dim(),
			NodeID:      fmt.Sprintf("%s-%d", sp.name, p),
			Addr:        ln.Addr().String(),
			Vectors:     ds.Len(),
		})
		nd := &node{ds: ds, idx: idx, srv: srv, l: listen(ln, srv.Handler())}
		e.nodes = append(e.nodes, nd)
		urls = append(urls, ln.Addr().String())
	}

	front := e.nodes[0].l.url
	if sp.shards > 0 {
		t0 := time.Now()
		m, err := cluster.ParseTopology(strings.Join(urls, ";"))
		if err == nil {
			err = m.ResolveBases(context.Background(), nil)
		}
		if err != nil {
			return nil, fmt.Errorf("resolve topology: %w", err)
		}
		e.resolveMS = ms(time.Since(t0))
		e.router, err = cluster.New(m, cluster.Config{
			HedgeDelay:    0,
			ProbeInterval: -1,
			DefaultK:      10,
			Dim:           m.Dim,
			Retry:         serve.RetryPolicy{MaxAttempts: 3},
		})
		if err != nil {
			return nil, fmt.Errorf("build router: %w", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		e.routerL = listen(ln, e.router.Handler())
		front = e.routerL.url
	}
	e.transport = &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	e.client = &serve.Client{BaseURL: front, HTTPClient: &http.Client{Transport: e.transport}}
	return e, nil
}

// close tears the system down front to back, waits for every goroutine it
// started, and removes the durable index's directory.
func (e *env) close() {
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	if e.routerL != nil {
		e.routerL.stop()
	}
	if e.router != nil {
		e.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, nd := range e.nodes {
		nd.l.stop()
		_ = nd.srv.Close(ctx) // drain budget only; nothing is queued once the listener stopped
	}
	if e.live != nil {
		_ = e.live.Close() // second Close after the recovery check is a no-op
	}
	// ResolveBases probed the shards through http.DefaultClient.
	http.DefaultClient.CloseIdleConnections()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// lookup returns the benchmark's copy of a live vector, nil otherwise.
func (e *env) lookup(id int) []uint64 {
	if id < e.lo || id >= e.data.len() {
		return nil
	}
	return e.data.at(id)
}

// freshDir returns an empty directory under the benchmark's output
// directory for one durable index.
func freshDir(out, name string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, name+"-")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
