package bitvec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/aperr"
)

// Snapshot format: version 2 of the APDS container. It extends the plain
// dataset format with a manifest so a snapshot plus a write-ahead-log suffix
// reconstructs the exact live view of a mutable index — identical global
// IDs, identical tie-breaks, identical NextID watermark.
//
//	offset  size  field
//	0       4     magic "APDS"
//	4       4     format version (2 for snapshots)
//	8       4     dim — bits per vector
//	12      8     n — vector count
//	20      8     generation — the base compilation this snapshot captures
//	28      8     NextID — the global-ID watermark at the snapshot cut
//	36      1     ids flag: 0 = identity (vector i has global ID i),
//	              1 = explicit ascending ID list follows (never the identity)
//	37      ...   [flag=1] n uint64 global IDs, strictly ascending
//	...     8     tombstone count
//	...     ...   tombstone global IDs, strictly ascending
//	...     ...   n * WordsFor(dim) uint64 words (same payload as version 1)
//
// Version 1 files (WriteTo/ReadDataset) remain the interchange format for
// plain datasets; version 2 is what the durability layer persists.

// snapshotVersion is the APDS container version carrying a manifest.
const snapshotVersion = 2

// Manifest is the recovery metadata of one snapshot.
type Manifest struct {
	// Generation numbers the base compilation the snapshot captures.
	Generation int64
	// NextID is the global-ID watermark: the ID the next insert would have
	// been assigned at the snapshot cut. Replay advances it.
	NextID int
	// IDs maps vector position to global ID, one per vector, strictly
	// ascending and below NextID. On disk it is the identity flag or the
	// explicit list; in memory it is held as runs, so the list of a shifted
	// contiguous range costs one run.
	IDs IDMap
	// Tombstones are global IDs deleted but not folded out of the payload,
	// strictly ascending. Snapshots written at a compaction cut fold every
	// tombstone into the survivor set, so this is normally empty; the format
	// carries it so any consistent view can be persisted.
	Tombstones []int
}

// WriteSnapshot serializes ds plus its manifest in APDS version 2. The
// manifest's IDs must map every vector, all below NextID. The ID list is
// expanded from its runs, and it and the payload are written a fixed-size
// chunk at a time.
func WriteSnapshot(w io.Writer, ds *Dataset, m *Manifest) (int64, error) {
	if m.IDs.Len() != ds.Len() {
		return 0, fmt.Errorf("bitvec: snapshot has %d ids for %d vectors: %w", m.IDs.Len(), ds.Len(), aperr.ErrBadFormat)
	}
	lw := newLEWriter(w)
	lw.buf = append(lw.buf, DatasetMagic...)
	lw.buf = binary.LittleEndian.AppendUint32(lw.buf, snapshotVersion)
	lw.buf = binary.LittleEndian.AppendUint32(lw.buf, uint32(ds.dim))
	lw.buf = binary.LittleEndian.AppendUint64(lw.buf, uint64(ds.n))
	lw.buf = binary.LittleEndian.AppendUint64(lw.buf, uint64(m.Generation))
	lw.buf = binary.LittleEndian.AppendUint64(lw.buf, uint64(m.NextID))
	if m.IDs.IsIdentity() {
		lw.buf = append(lw.buf, 0)
	} else {
		lw.buf = append(lw.buf, 1)
		m.IDs.EachRun(func(first, count int) {
			for id := first; id < first+count; id++ {
				lw.put(uint64(id))
			}
		})
	}
	lw.put(uint64(len(m.Tombstones)))
	for _, id := range m.Tombstones {
		lw.put(uint64(id))
	}
	if err := lw.flush(); err != nil {
		return lw.written, fmt.Errorf("bitvec: write snapshot manifest: %w", err)
	}
	lw.words(ds.Words())
	if err := lw.flush(); err != nil {
		return lw.written, fmt.Errorf("bitvec: write snapshot words: %w", err)
	}
	return lw.written, nil
}

// ReadSnapshot parses an APDS version 2 snapshot, validating the header,
// manifest and payload geometry. Failures carry the typed sentinels
// (aperr.ErrBadFormat, aperr.ErrTruncated) like ReadDataset.
func ReadSnapshot(r io.Reader) (*Dataset, *Manifest, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("bitvec: read snapshot header: %w", truncated(err))
	}
	if string(hdr[0:4]) != DatasetMagic {
		return nil, nil, fmt.Errorf("bitvec: bad snapshot magic %q (want %q): %w", hdr[0:4], DatasetMagic, aperr.ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != snapshotVersion {
		return nil, nil, fmt.Errorf("bitvec: unsupported snapshot version %d (want %d): %w", v, snapshotVersion, aperr.ErrBadFormat)
	}
	dim := binary.LittleEndian.Uint32(hdr[8:12])
	count := binary.LittleEndian.Uint64(hdr[12:20])
	if dim == 0 || dim > 1<<20 {
		return nil, nil, fmt.Errorf("bitvec: snapshot dim %d out of range: %w", dim, aperr.ErrBadFormat)
	}
	wordsPV := uint64(WordsFor(int(dim)))
	if count > math.MaxInt64/(8*wordsPV) {
		return nil, nil, fmt.Errorf("bitvec: snapshot count %d overflows: %w", count, aperr.ErrBadFormat)
	}
	var mhdr [17]byte
	if _, err := io.ReadFull(r, mhdr[:]); err != nil {
		return nil, nil, fmt.Errorf("bitvec: read snapshot manifest: %w", truncated(err))
	}
	m := &Manifest{
		Generation: int64(binary.LittleEndian.Uint64(mhdr[0:8])),
		NextID:     int(binary.LittleEndian.Uint64(mhdr[8:16])),
	}
	if m.Generation < 0 || m.NextID < 0 || uint64(m.NextID) < count {
		return nil, nil, fmt.Errorf("bitvec: snapshot watermark %d below %d vectors: %w", m.NextID, count, aperr.ErrBadFormat)
	}
	switch mhdr[16] {
	case 0:
		m.IDs = Identity(int(count))
	case 1:
		if err := readIDs(r, int(count), m.NextID, "id", func(id int) { m.IDs.AppendRange(id, 1) }); err != nil {
			return nil, nil, err
		}
		if m.IDs.IsIdentity() {
			return nil, nil, fmt.Errorf("bitvec: snapshot lists the identity id map explicitly: %w", aperr.ErrBadFormat)
		}
	default:
		return nil, nil, fmt.Errorf("bitvec: snapshot ids flag %d: %w", mhdr[16], aperr.ErrBadFormat)
	}
	var tc [8]byte
	if _, err := io.ReadFull(r, tc[:]); err != nil {
		return nil, nil, fmt.Errorf("bitvec: read snapshot tombstone count: %w", truncated(err))
	}
	tombCount := binary.LittleEndian.Uint64(tc[:])
	if tombCount > uint64(m.NextID) {
		return nil, nil, fmt.Errorf("bitvec: %d tombstones exceed watermark %d: %w", tombCount, m.NextID, aperr.ErrBadFormat)
	}
	if err := readIDs(r, int(tombCount), m.NextID, "tombstone", func(id int) {
		m.Tombstones = append(growTo(m.Tombstones, 1, int(tombCount)), id)
	}); err != nil {
		return nil, nil, err
	}
	ds := NewDataset(int(dim))
	ds.n = int(count)
	var err error
	if ds.words, err = readWords(r, int(count*wordsPV), "snapshot words"); err != nil {
		return nil, nil, err
	}
	if tail := uint(dim) & 63; tail != 0 {
		mask := ^uint64(0) << tail
		for i := int(wordsPV) - 1; i < len(ds.words); i += int(wordsPV) {
			if ds.words[i]&mask != 0 {
				return nil, nil, fmt.Errorf("bitvec: snapshot vector %d has bits beyond dim %d: %w", i/int(wordsPV), dim, aperr.ErrBadFormat)
			}
		}
	}
	return ds, m, nil
}

// readIDs reads n strictly ascending uint64 IDs below limit and calls fn
// with each in turn. It reads in bounded chunks, so a hostile count fails on
// byte exhaustion rather than OOM.
func readIDs(r io.Reader, n, limit int, what string, fn func(id int)) error {
	prev := -1
	return readChunks(r, n, "snapshot "+what+" list", func(chunk []byte) error {
		for i := 0; i < len(chunk); i += 8 {
			id := binary.LittleEndian.Uint64(chunk[i:])
			if id >= uint64(limit) || int(id) <= prev {
				return fmt.Errorf("bitvec: snapshot %s %d out of order or beyond watermark %d: %w", what, id, limit, aperr.ErrBadFormat)
			}
			prev = int(id)
			fn(prev)
		}
		return nil
	})
}
