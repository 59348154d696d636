package bitvec

import "fmt"

// IDMap maps the positions of a dataset to strictly ascending global IDs, as
// runs: each run maps a stretch of consecutive positions to consecutive IDs.
// The identity over n vectors is one run, and so is the shifted range that
// oldest-first deletes leave behind, so a map costs O(runs) rather than one
// int per vector. The zero value maps no positions. Build a map with Identity
// or the Append methods; a built map is never written again and may be
// shared.
type IDMap struct {
	runs []idRun // pos and id both strictly ascending; runs[0].pos == 0
	n    int     // positions mapped
}

// idRun maps positions [pos, next run's pos) to IDs id, id+1, ...
type idRun struct{ pos, id int }

// Identity returns the map of n positions onto IDs 0..n-1.
func Identity(n int) IDMap {
	var m IDMap
	m.AppendRange(0, n)
	return m
}

// Len returns the number of positions the map covers.
func (m IDMap) Len() int { return m.n }

// Runs returns the number of runs the map is stored as.
func (m IDMap) Runs() int { return len(m.runs) }

// IsIdentity reports whether every position maps to itself.
func (m IDMap) IsIdentity() bool {
	return len(m.runs) == 0 || len(m.runs) == 1 && m.runs[0].id == 0
}

// ID returns the global ID of position pos. It panics outside [0, Len).
func (m IDMap) ID(pos int) int {
	if uint(pos) >= uint(m.n) {
		panic(fmt.Sprintf("bitvec: id map position %d out of range [0,%d)", pos, m.n))
	}
	r := m.runs[m.runAt(pos)]
	return r.id + pos - r.pos
}

// Position returns the position mapped to global ID id, false when none is.
func (m IDMap) Position(id int) (int, bool) {
	lo, hi := 0, len(m.runs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m.runs[h].id <= id {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo == 0 {
		return 0, false
	}
	r := m.runs[lo-1]
	pos := r.pos + id - r.id
	return pos, pos < m.end(lo-1)
}

// AppendRange maps count more positions to IDs first, first+1, ... first
// must exceed every ID already mapped; a range that continues the last run
// extends it.
func (m *IDMap) AppendRange(first, count int) {
	if count <= 0 {
		return
	}
	if len(m.runs) > 0 {
		last := m.runs[len(m.runs)-1]
		switch next := last.id + m.n - last.pos; {
		case first < next:
			panic(fmt.Sprintf("bitvec: id map range from %d does not ascend past %d", first, next-1))
		case first == next:
			m.n += count
			return
		}
	}
	m.runs = append(m.runs, idRun{pos: m.n, id: first})
	m.n += count
}

// AppendSub appends the mapping of src's positions [lo, hi), in order.
func (m *IDMap) AppendSub(src IDMap, lo, hi int) {
	for r := src.runAt(lo); lo < hi; r++ {
		end := min(hi, src.end(r))
		m.AppendRange(src.runs[r].id+lo-src.runs[r].pos, end-lo)
		lo = end
	}
}

// EachRun calls fn(first, count) for every run, ascending: count
// consecutive positions mapped to IDs first onward.
func (m IDMap) EachRun(fn func(first, count int)) {
	for r, run := range m.runs {
		fn(run.id, m.end(r)-run.pos)
	}
}

// runAt returns the index of the run holding position pos: the last run that
// starts at or before it (-1 when there is none).
func (m IDMap) runAt(pos int) int {
	lo, hi := 0, len(m.runs)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m.runs[h].pos <= pos {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo - 1
}

// end returns the position one past run r.
func (m IDMap) end(r int) int {
	if r+1 < len(m.runs) {
		return m.runs[r+1].pos
	}
	return m.n
}
