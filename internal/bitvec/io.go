package bitvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/aperr"
)

// Binary dataset format: a fixed little-endian header followed by the packed
// vector words, so apserve/apknn can persist and reload real datasets
// instead of synthesizing one per boot.
//
//	offset  size  field
//	0       4     magic "APDS"
//	4       4     format version (currently 1)
//	8       4     dim — bits per vector
//	12      8     n — vector count
//	20      ...   n * WordsFor(dim) uint64 words, little-endian
//
// The payload is exactly the in-memory layout Dataset streams through, so a
// load is one contiguous read into a slab of exactly the payload's size.

// DatasetMagic is the four-byte file signature of the binary dataset format.
const DatasetMagic = "APDS"

// datasetVersion is the current format version written by WriteTo.
const datasetVersion = 1

// headerLen is the fixed byte length of the dataset header.
const headerLen = 4 + 4 + 4 + 8

// WriteTo serializes the dataset in the binary format above. It implements
// io.WriterTo; the returned count is the total bytes written. The payload
// goes out a fixed-size chunk at a time, never copied whole.
func (ds *Dataset) WriteTo(w io.Writer) (int64, error) {
	lw := newLEWriter(w)
	lw.buf = append(lw.buf, DatasetMagic...)
	lw.buf = binary.LittleEndian.AppendUint32(lw.buf, datasetVersion)
	lw.buf = binary.LittleEndian.AppendUint32(lw.buf, uint32(ds.dim))
	lw.buf = binary.LittleEndian.AppendUint64(lw.buf, uint64(ds.n))
	if err := lw.flush(); err != nil {
		return lw.written, fmt.Errorf("bitvec: write dataset header: %w", err)
	}
	lw.words(ds.Words())
	if err := lw.flush(); err != nil {
		return lw.written, fmt.Errorf("bitvec: write dataset words: %w", err)
	}
	return lw.written, nil
}

// writeChunkBytes is the size of the one buffer a payload is written
// through.
const writeChunkBytes = 64 << 10

// leWriter writes little-endian uint64s to w through one fixed-size buffer,
// so a payload of any size costs no copy of its own size. The first error
// sticks: later writes are dropped, and flush returns it.
type leWriter struct {
	w       io.Writer
	buf     []byte
	written int64
	err     error
}

func newLEWriter(w io.Writer) *leWriter {
	return &leWriter{w: w, buf: make([]byte, 0, writeChunkBytes)}
}

// put appends one word, writing the buffer out first when it is full.
func (lw *leWriter) put(v uint64) {
	if len(lw.buf)+8 > cap(lw.buf) {
		lw.flush()
	}
	lw.buf = binary.LittleEndian.AppendUint64(lw.buf, v)
}

// words appends ws, a buffer's worth at a time.
func (lw *leWriter) words(ws []uint64) {
	for len(ws) > 0 && lw.err == nil {
		if len(lw.buf)+8 > cap(lw.buf) {
			lw.flush()
		}
		n := min(len(ws), (cap(lw.buf)-len(lw.buf))/8)
		for _, v := range ws[:n] {
			lw.buf = binary.LittleEndian.AppendUint64(lw.buf, v)
		}
		ws = ws[n:]
	}
}

// flush writes the buffer out and returns the first error so far.
func (lw *leWriter) flush() error {
	if lw.err == nil && len(lw.buf) > 0 {
		var n int
		n, lw.err = lw.w.Write(lw.buf)
		lw.written += int64(n)
	}
	lw.buf = lw.buf[:0]
	return lw.err
}

// truncated maps a short read onto the typed aperr.ErrTruncated sentinel,
// passing genuine I/O failures through unchanged.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return aperr.ErrTruncated
	}
	return err
}

// ReadDataset parses a dataset serialized by WriteTo, validating the magic,
// version and geometry before reading the payload. Failures carry the
// typed sentinels: a file that ends early wraps aperr.ErrTruncated, a wrong
// magic, version, impossible geometry or non-canonical tail bits wrap
// aperr.ErrBadFormat — never a panic, never a silent short read.
func ReadDataset(r io.Reader) (*Dataset, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("bitvec: read dataset header: %w", truncated(err))
	}
	if string(hdr[0:4]) != DatasetMagic {
		return nil, fmt.Errorf("bitvec: bad dataset magic %q (want %q): %w", hdr[0:4], DatasetMagic, aperr.ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != datasetVersion {
		return nil, fmt.Errorf("bitvec: unsupported dataset format version %d (want %d): %w", v, datasetVersion, aperr.ErrBadFormat)
	}
	dim := binary.LittleEndian.Uint32(hdr[8:12])
	count := binary.LittleEndian.Uint64(hdr[12:20])
	if dim == 0 || dim > 1<<20 {
		return nil, fmt.Errorf("bitvec: dataset dim %d out of range: %w", dim, aperr.ErrBadFormat)
	}
	wordsPV := uint64(WordsFor(int(dim)))
	if count > math.MaxInt64/(8*wordsPV) {
		return nil, fmt.Errorf("bitvec: dataset count %d overflows: %w", count, aperr.ErrBadFormat)
	}
	ds := NewDataset(int(dim))
	ds.n = int(count)
	var err error
	if ds.words, err = readWords(r, int(count*wordsPV), "dataset words"); err != nil {
		return nil, err
	}
	// Tails beyond dim must be zero (canonical form); reject corrupt files
	// rather than search garbage bits.
	if tail := uint(dim) & 63; tail != 0 {
		mask := ^uint64(0) << tail
		for i := int(wordsPV) - 1; i < len(ds.words); i += int(wordsPV) {
			if ds.words[i]&mask != 0 {
				return nil, fmt.Errorf("bitvec: vector %d has bits beyond dim %d: %w", i/int(wordsPV), dim, aperr.ErrBadFormat)
			}
		}
	}
	return ds, nil
}

// readChunkWords is how many words one read takes from the input.
const readChunkWords = 1 << 16

// readChunks reads total little-endian uint64s from r, readChunkWords at a
// time, and hands each chunk's bytes to fn. A short read wraps
// aperr.ErrTruncated in an error naming what was being read.
func readChunks(r io.Reader, total int, what string, fn func(chunk []byte) error) error {
	buf := make([]byte, 8*min(readChunkWords, total))
	for read := 0; read < total; {
		n := min(readChunkWords, total-read)
		if _, err := io.ReadFull(r, buf[:8*n]); err != nil {
			return fmt.Errorf("bitvec: read %s: %w", what, truncated(err))
		}
		if err := fn(buf[:8*n]); err != nil {
			return err
		}
		read += n
	}
	return nil
}

// growTo returns s with room for n more elements of a total declared up
// front. A full s doubles its capacity — at least to one read chunk, at most
// to total — so a slice grown as its input arrives ends at exactly len ==
// cap == total, and never holds more than twice what was read, or one chunk:
// a header claiming petabytes costs what its actual bytes do.
func growTo[T any](s []T, n, total int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	g := make([]T, len(s), min(total, max(2*cap(s), len(s)+n, readChunkWords)))
	copy(g, s)
	return g
}

// readWords reads total little-endian uint64s from r into a slice of exactly
// total words. Each chunk is read before the slice grows to hold it, so a
// corrupt or hostile header fails with a clean aperr.ErrTruncated as soon as
// the actual bytes run out, having allocated about twice what it read.
func readWords(r io.Reader, total int, what string) ([]uint64, error) {
	var words []uint64
	err := readChunks(r, total, what, func(chunk []byte) error {
		n := len(chunk) / 8
		words = growTo(words, n, total)
		dst := words[len(words) : len(words)+n]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(chunk[8*i:])
		}
		words = words[:len(words)+n]
		return nil
	})
	return words, err
}
