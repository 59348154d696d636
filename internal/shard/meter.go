package shard

import (
	"sync"
	"time"

	"repro/internal/ap"
	"repro/internal/bitvec"
)

// Meter is the board-fleet meter: a fleet that is priced but never run.
// Every answered batch is one configuration sweep on every board, so two
// totals price the whole fleet: board s has streamed
// parts(s)·queries·StreamLen symbols and loaded parts(s)·batches
// configurations — ap.Board's accounting in closed form, equal to what
// Engine's boards count for the same batches. Modeled time is derived from
// the totals when read, never summed per batch. One mutex guards the pair,
// so no reading shows symbols without their reconfigurations.
type Meter struct {
	cfg       ap.DeviceConfig
	streamLen int
	parts     []int // configurations per board, shard order

	mu      sync.Mutex
	queries int
	batches int
}

// Reading is one consistent view of what a Meter has charged: fleet
// totals, every board's modeled wall-clock in shard order, and the fleet's,
// its slowest board's.
type Reading struct {
	SymbolsStreamed, Reconfigs int
	BoardTimes                 []time.Duration
	ModeledTime                time.Duration
}

// NewMeter plans ds across opts.Boards boards exactly as New does.
func NewMeter(ds *bitvec.Dataset, opts Options) (*Meter, error) {
	p, err := newPlan(ds, opts)
	if err != nil {
		return nil, err
	}
	m := &Meter{cfg: p.cfg, streamLen: p.layout.StreamLen()}
	for _, r := range p.ranges {
		m.parts = append(m.parts, (r[1]-r[0]+p.capacity-1)/p.capacity)
	}
	return m, nil
}

// Charge records one answered batch of queries: a configuration sweep on
// every board, each streaming every query.
func (m *Meter) Charge(queries int) {
	m.mu.Lock()
	m.queries += queries
	m.batches++
	m.mu.Unlock()
}

// Shards returns the number of boards in the plan.
func (m *Meter) Shards() int { return len(m.parts) }

// Partitions returns the total board configurations across all boards.
func (m *Meter) Partitions() int {
	n := 0
	for _, p := range m.parts {
		n += p
	}
	return n
}

// Read returns what the fleet has been charged so far.
func (m *Meter) Read() Reading {
	m.mu.Lock()
	queries, batches := m.queries, m.batches
	m.mu.Unlock()
	r := Reading{BoardTimes: make([]time.Duration, len(m.parts))}
	for i, p := range m.parts {
		symbols, reconfigs := p*queries*m.streamLen, p*batches
		r.SymbolsStreamed += symbols
		r.Reconfigs += reconfigs
		r.BoardTimes[i] = m.cfg.ModeledTime(symbols, reconfigs)
	}
	r.ModeledTime = slowest(r.BoardTimes)
	return r
}
