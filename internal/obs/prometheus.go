package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Prometheus text exposition (version 0.0.4) writers. Histogram samples are
// recorded in nanoseconds but exposed in seconds with float `le` bounds, the
// Prometheus convention for latency series; only non-empty buckets are
// emitted (plus the mandatory +Inf), which is valid exposition — bucket
// bounds just have to be increasing and cumulative, not exhaustive.

// secs formats a nanosecond count as the shortest float-seconds literal.
func secs(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// WriteHistogram writes one histogram family: HELP/TYPE header, cumulative
// non-empty buckets, the +Inf bucket, _sum and _count.
func WriteHistogram(w io.Writer, s Snapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", s.Name, s.Help, s.Name)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", s.Name, secs(bucketUpper(i)), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", s.Name, s.Count)
	fmt.Fprintf(w, "%s_sum %s\n", s.Name, secs(s.Sum))
	fmt.Fprintf(w, "%s_count %d\n", s.Name, s.Count)
}

// WritePrometheus writes every registered histogram in name order.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, s := range r.Snapshots() {
		WriteHistogram(w, s)
	}
}

// WriteMetrics answers GET /metrics on either tier in exposition format
// 0.0.4: the build-info gauge, every histogram on Default with its
// minute-window summary, then the counters and gauges of the per-instance
// sets in scope. A handler names no series; it only says whose sets it serves.
func WriteMetrics(w http.ResponseWriter, sets ...*Set) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteBuildInfo(w)
	Default.WritePrometheus(w)
	Default.WriteWindowed(w, time.Now())
	for _, s := range sets {
		s.WritePrometheus(w)
	}
}
