package obs

import (
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

// appendSecs appends a nanosecond count as the shortest float-seconds
// literal.
func appendSecs(b []byte, ns int64) []byte {
	return strconv.AppendFloat(b, float64(ns)/1e9, 'g', -1, 64)
}

// appendHeader appends a histogram family's HELP and TYPE lines.
func appendHeader(b []byte, name, help string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	return append(b, " histogram\n"...)
}

// appendSeries appends one series of a histogram family: its cumulative
// non-empty buckets, the +Inf bucket, _sum and _count. labels is the
// series' label pairs (`root="x"`), "" for none. Every line is appended in
// place: a bound is never a string of its own.
func appendSeries(b []byte, s Snapshot, labels string) []byte {
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		b = appendSecs(appendBucket(b, s.Name, labels), bucketUpper(i))
		b = appendCount(append(b, '"', '}'), cum)
	}
	b = append(appendBucket(b, s.Name, labels), "+Inf\"}"...)
	b = appendCount(b, s.Count)
	b = appendSecs(append(appendSample(b, s.Name, "_sum", labels), ' '), s.Sum)
	b = append(b, '\n')
	return appendCount(appendSample(b, s.Name, "_count", labels), s.Count)
}

// appendBucket appends a bucket line up to its le value.
func appendBucket(b []byte, name, labels string) []byte {
	b = append(b, name...)
	b = append(b, "_bucket{"...)
	if labels != "" {
		b = append(b, labels...)
		b = append(b, ',')
	}
	return append(b, `le="`...)
}

// appendSample appends a sample's name and labels.
func appendSample(b []byte, name, suffix, labels string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	return b
}

// appendCount ends a line with its count.
func appendCount(b []byte, n int64) []byte {
	return append(strconv.AppendInt(append(b, ' '), n, 10), '\n')
}

// WritePrometheus writes every registered histogram in name order, then the
// labeled families, one reused buffer for all of them: 8 KiB holds a
// family of ≈150 bucket lines without growing.
func (r *Registry) WritePrometheus(w io.Writer) {
	b := make([]byte, 0, 8<<10)
	for _, s := range r.Snapshots() {
		b = appendSeries(appendHeader(b[:0], s.Name, s.Help), s, "")
		w.Write(b)
	}
	for _, v := range r.vecList() {
		b = v.appendFamily(b[:0])
		w.Write(b)
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
