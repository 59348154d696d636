package obs

import (
	"sort"
	"strconv"
	"sync"
)

// Registry holds named histograms. Registration is GetOrCreate by name: two
// packages (or two servers in one process) asking for the same metric share
// one histogram, exactly how one process exports one Prometheus series.
type Registry struct {
	mu    sync.RWMutex
	hists map[string]*Histogram
	vecs  map[string]*HistogramVec
}

// NewRegistry builds an empty registry. Most callers use Default.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram), vecs: make(map[string]*HistogramVec)}
}

// Default is the process-wide registry both /metrics handlers expose and
// /v1/stats summarizes.
var Default = NewRegistry()

// Histogram returns the histogram registered under name, creating it with
// the given help text on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(name, help)
		r.hists[name] = h
	}
	return h
}

// NewHistogram registers (or fetches) name on the Default registry — the
// one-liner package-level metric declarations use.
func NewHistogram(name, help string) *Histogram {
	return Default.Histogram(name, help)
}

// sortHistograms orders histograms by registered name.
func sortHistograms(hists []*Histogram) {
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
}

// Snapshots returns a name-sorted snapshot of every registered histogram.
func (r *Registry) Snapshots() []Snapshot {
	r.mu.RLock()
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.RUnlock()
	sortHistograms(hists)
	out := make([]Snapshot, len(hists))
	for i, h := range hists {
		out[i] = h.Snapshot()
	}
	return out
}

// Summaries condenses every registered histogram that has recorded at least
// one sample into its /v1/stats quantile block, keyed by metric name.
// Metrics that never fired are omitted so a static apserve's stats block
// does not list empty WAL or cluster series.
func (r *Registry) Summaries() map[string]Summary {
	out := make(map[string]Summary)
	for _, s := range r.Snapshots() {
		if s.Count == 0 {
			continue
		}
		out[s.Name] = s.Summary()
	}
	return out
}

// HistogramVec is a histogram family with one label, a member per label
// value created on first use. Its members are exposed on /metrics only:
// they have no /v1/stats summary and no minute window family.
type HistogramVec struct {
	name, help, label string

	mu      sync.RWMutex
	members map[string]*Histogram
}

// HistogramVec returns the labeled family registered under name, creating
// it on first use.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.vecs[name]
	if v == nil {
		v = &HistogramVec{name: name, help: help, label: label, members: make(map[string]*Histogram)}
		r.vecs[name] = v
	}
	return v
}

// With returns the member recording under the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.members[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.members[value]; h == nil {
		h = newHistogram(v.name, v.help)
		v.members[value] = h
	}
	return h
}

// vecList returns the registered labeled families in name order.
func (r *Registry) vecList() []*HistogramVec {
	r.mu.RLock()
	out := make([]*HistogramVec, 0, len(r.vecs))
	for _, v := range r.vecs {
		out = append(out, v)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// appendFamily appends the family's exposition: one HELP/TYPE header, even
// before any member exists, then every member in label-value order.
func (v *HistogramVec) appendFamily(b []byte) []byte {
	v.mu.RLock()
	values := make([]string, 0, len(v.members))
	for value := range v.members {
		values = append(values, value)
	}
	v.mu.RUnlock()
	sort.Strings(values)
	b = appendHeader(b, v.name, v.help)
	for _, value := range values {
		labels := v.label + "=" + strconv.Quote(value)
		b = appendSeries(b, v.With(value).Snapshot(), labels)
	}
	return b
}
