package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	apknn "repro"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/heat"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
)

// timeCalls times each of n calls on its own and returns the median ns.
func timeCalls(n int, fn func(i int)) float64 {
	lat := make([]int64, n)
	for i := range lat {
		start := time.Now()
		fn(i)
		lat[i] = int64(time.Since(start))
	}
	return medianNS(lat)
}

// timeBatched is timeCalls for calls too short for one clock read each: it
// times batches of per calls and returns the median ns per call.
func timeBatched(batches, per int, fn func(i int)) float64 {
	lat := make([]int64, batches)
	for b := range lat {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		lat[b] = int64(time.Since(start))
	}
	return medianNS(lat) / float64(per)
}

// allocsPer returns heap allocations and bytes per call over n calls: the
// process-wide MemStats delta while this goroutine alone drives, so work a
// call hands to the program's own goroutines is counted too.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// discard is a ResponseWriter that keeps nothing, so an encode measurement
// times the encoder and not a recorder's buffer growth.
type discard struct{ h http.Header }

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) Write(p []byte) (int, error) { return len(p), nil }
func (w *discard) WriteHeader(int)             {}

// Sizes of the fixed-count layer measurements.
const (
	microBatches = 50
	microPer     = 200
	microN       = microBatches * microPer
)

// layerMetrics measures the layers that have no depth of their own in the
// replay by calling their public functions directly, on this workload's
// shape of data.
func layerMetrics(d *driver, o options, set func(string, float64)) error {
	e, sp := d.e, d.e.sp
	r := newRNG(o.seed, streamLayers)
	vecs := make([]apknn.Vector, microN)
	strs := make([]string, microN)
	for i := range vecs {
		vecs[i] = e.data.vector(e.data.random(r))
		strs[i] = vecs[i].String()
	}

	// bitvec: the wire form of a vector, paid on every hop.
	set("bitvec.parse_ns", timeBatched(microBatches, microPer, func(i int) { _, _ = bitvec.ParseBits(strs[i]) }))
	set("bitvec.format_ns", timeBatched(microBatches, microPer, func(i int) { _ = vecs[i].String() }))

	// knn: merging two sorted k-lists, the host-side step after any scatter.
	a := knn.Linear(e.nodes[0].ds, vecs[0], sp.k)
	b := knn.Linear(e.nodes[0].ds, vecs[1], sp.k)
	set("knn.merge_ns", timeBatched(microBatches, microPer, func(int) { _ = knn.MergeTopK(a, b, sp.k) }))

	// serve: the JSON codec of one request, without handler or socket.
	bodies := make([][]byte, microN)
	for i := range bodies {
		var err error
		if sp.batch == 1 {
			bodies[i], err = json.Marshal(serve.SearchRequest{Query: strs[i], K: sp.k})
		} else {
			lo := i % (microN - sp.batch)
			bodies[i], err = json.Marshal(serve.SearchBatchRequest{Queries: strs[lo : lo+sp.batch], K: sp.k})
		}
		if err != nil {
			return err
		}
	}
	wire := make([]serve.Neighbor, len(a))
	for i, nb := range a {
		wire[i] = serve.Neighbor{ID: nb.ID, Dist: nb.Dist}
	}
	w := &discard{h: make(http.Header)}
	if sp.batch == 1 {
		set("serve.decode_ns", timeBatched(microBatches, microPer, func(i int) {
			var req serve.SearchRequest
			_ = json.NewDecoder(bytes.NewReader(bodies[i])).Decode(&req)
		}))
		set("serve.encode_ns", timeBatched(microBatches, microPer, func(int) {
			serve.WriteJSON(w, http.StatusOK, serve.SearchResponse{Neighbors: wire, FlushSize: 1})
		}))
	} else {
		set("serve.decode_ns", timeBatched(microBatches, microPer, func(i int) {
			var req serve.SearchBatchRequest
			_ = json.NewDecoder(bytes.NewReader(bodies[i])).Decode(&req)
		}))
		reply := serve.SearchBatchResponse{Neighbors: make([][]serve.Neighbor, sp.batch)}
		for i := range reply.Neighbors {
			reply.Neighbors[i] = wire
		}
		set("serve.encode_ns", timeBatched(microBatches, microPer, func(int) {
			serve.WriteJSON(w, http.StatusOK, reply)
		}))
	}

	// obs, heat: the fixed per-request tax of recording.
	hist := obs.NewUnregisteredHistogram("bench_record", "benchmark probe")
	set("obs.record_ns", timeBatched(microBatches, microPer, func(i int) { hist.RecordNS(int64(i) * 977) }))
	var ctx context.Context
	set("obs.span_ns", timeBatched(microBatches, microPer, func(i int) {
		if i%microPer == 0 { // a fresh trace per batch keeps the tree bounded
			ctx = obs.WithTrace(context.Background(), obs.NewTrace(strconv.Itoa(i), "bench"))
		}
		obs.StartSpan(ctx, "probe").End()
	}))
	tracker := heat.NewTracker(10)
	set("heat.observe_ns", timeBatched(microBatches, microPer, func(i int) { tracker.Observe(strs[i]) }))

	if sp.backend == apknn.Sharded {
		if err := apLayer(e, vecs, set); err != nil {
			return err
		}
	}
	if sp.live {
		if err := liveLayer(d, o, vecs, set); err != nil {
			return err
		}
		if err := walLayer(e, o, vecs, set); err != nil {
			return err
		}
	}
	return nil
}

// apLayer times one simulated board's host path: the fast engine over a
// quarter of the set (the sharded backend's default is four boards) and the
// symbol-stream encoder.
func apLayer(e *env, vecs []apknn.Vector, set func(string, float64)) error {
	ds := e.nodes[0].ds
	eng, err := core.NewFastEngine(ds.Slice(0, ds.Len()/4), core.EngineOptions{})
	if err != nil {
		return fmt.Errorf("fast engine: %w", err)
	}
	set("ap.fast_query_ns", timeCalls(400, func(i int) { _, _ = eng.Query(vecs[i:i+1], e.sp.k) }))
	layout := eng.Layout()
	set("ap.encode_ns", timeBatched(microBatches, microPer, func(i int) { _, _ = core.EncodeBatch(vecs[i:i+1], layout) }))
	return nil
}

// liveChurn is the pending churn liveLayer builds before it measures a
// mixed search: half inserts, half tombstones, together the default
// compaction threshold.
const liveChurn = 512

// liveLayer measures the live index's own calls on a scratch durable index
// over the same base set, with background compaction off so the churn it
// builds stays pending until the explicit Compact.
func liveLayer(d *driver, o options, vecs []apknn.Vector, set func(string, float64)) error {
	e, sp := d.e, d.e.sp
	dir, err := freshDir(o.out, "live-layer")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ds, err := e.data.dataset(0, sp.n)
	if err != nil {
		return err
	}
	opts := append(indexOptions(sp),
		apknn.WithCompactThreshold(-1),
		apknn.WithCompactInterval(0),
		apknn.WithDurability(dir, apknn.DurabilityOptions{Fsync: apknn.FsyncNever}))
	idx, err := apknn.OpenLive(ds, opts...)
	if err != nil {
		return fmt.Errorf("open scratch live index: %w", err)
	}
	defer func() { idx.Close() }()
	ctx := d.ctx
	var first firstError
	note := first.note
	set("live.insert_ns", timeCalls(liveChurn, func(i int) { _, err := idx.Insert(ctx, vecs[i]); note(err) }))
	set("live.delete_ns", timeCalls(liveChurn, func(i int) { note(idx.Delete(ctx, i)) }))
	search := func(ix *apknn.LiveIndex) float64 {
		return timeCalls(400, func(i int) { _, err := ix.Search(ctx, vecs[liveChurn+i:liveChurn+i+1], sp.k); note(err) })
	}
	mixed := search(idx)
	set("live.search_ns", mixed)

	// Recovery replays exactly the churn above: 2×liveChurn records.
	note(idx.Close())
	start := time.Now()
	idx, err = apknn.OpenLive(nil, opts...)
	if err != nil {
		return fmt.Errorf("reopen scratch live index: %w", err)
	}
	set("live.recover_ms", ms(time.Since(start)))
	if info, ok := idx.Recovery(); ok {
		set("live.replayed_records", float64(info.ReplayedRecords))
	}

	start = time.Now()
	note(idx.Compact(ctx))
	set("live.compact_ms", ms(time.Since(start)))
	set("live.delta_overhead_ns", mixed-search(idx))
	return first.err
}

// walLayer measures the log on its own: append, sync and replay on a
// scratch file. wal.sync_ms is this sandbox's disk, not a deployment's.
func walLayer(e *env, o options, vecs []apknn.Vector, set func(string, float64)) error {
	dir, err := freshDir(o.out, "wal-layer")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.wal")
	opts := wal.Options{Policy: wal.SyncNever}
	log, err := wal.Create(path, e.sp.dim, opts)
	if err != nil {
		return err
	}
	var first firstError
	note := first.note
	const appends = 4096
	set("wal.append_ns", timeCalls(appends, func(i int) { note(log.Append(wal.InsertRecord(i, vecs[i]))) }))
	st := log.Stats()
	set("wal.bytes_per_insert", float64(st.Bytes)/float64(st.Appends))
	syncs := make([]int64, 16)
	for i := range syncs {
		note(log.Append(wal.InsertRecord(appends+i, vecs[i])))
		start := time.Now()
		note(log.Sync())
		syncs[i] = int64(time.Since(start))
	}
	set("wal.sync_ms", medianNS(syncs)/1e6)
	note(log.Close())

	start := time.Now()
	log, rep, err := wal.Open(path, e.sp.dim, opts, func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	set("wal.replay_mb_s", float64(rep.Bytes)/1e6/time.Since(start).Seconds())
	note(log.Close())
	return first.err
}
