package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
)

// Counter is a monotonic count declared once — series name, help and atomic
// together, through Set.Counter — beside the code that increments it.
// /metrics prints it through that Set and /v1/stats reads the same atomic
// through Load.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter; it is one atomic add.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Set is one instance's counters and gauges — a Server's, a Router's, an
// index's — in registration order. Counters are per instance (two servers in
// one process count apart), which is why they live here and not on the
// process-wide Registry the histograms share. Register everything before the
// owner starts serving; registration is not synchronized.
type Set struct {
	families []func(io.Writer)
}

func writeFamily(w io.Writer, name, help, kind, value string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, kind, name, value)
}

// Counter creates a counter on the set.
func (s *Set) Counter(name, help string) *Counter {
	c := &Counter{}
	s.CounterFunc(name, help, c.Load)
	return c
}

// CounterFunc exports a count something else already keeps — an engine's
// meter, a recorder's total — read at scrape time.
func (s *Set) CounterFunc(name, help string, read func() int64) {
	s.families = append(s.families, func(w io.Writer) {
		writeFamily(w, name, help, "counter", strconv.FormatInt(read(), 10))
	})
}

// Gauge exports a value that goes up and down, read at scrape time.
func (s *Set) Gauge(name, help string, read func() float64) {
	s.families = append(s.families, func(w io.Writer) {
		writeFamily(w, name, help, "gauge", strconv.FormatFloat(read(), 'g', -1, 64))
	})
}

// CounterVec creates a counter family with one label dimension, e.g. legs
// per shard; With adds its members.
func (s *Set) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{}
	s.families = append(s.families, func(w io.Writer) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i, c := range v.members {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, v.values[i], c.Load())
		}
	})
	return v
}

// CounterVec is a labeled counter family on a Set.
type CounterVec struct {
	values  []string
	members []*Counter
}

// With adds the member counting under the given label value.
func (v *CounterVec) With(value string) *Counter {
	c := &Counter{}
	v.values = append(v.values, value)
	v.members = append(v.members, c)
	return c
}

// WritePrometheus writes the set's families in registration order.
func (s *Set) WritePrometheus(w io.Writer) {
	for _, write := range s.families {
		write(w)
	}
}
