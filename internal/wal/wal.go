// Package wal implements the write-ahead log behind the live index's
// durability: an append-only file of length-prefixed, CRC32C-checksummed
// mutation records that, replayed over the newest snapshot, reconstructs the
// exact live view — identical global IDs, identical search results.
//
// The design follows the same amortization argument as the rest of the
// stack: the paper's cost model makes recovery-by-recompile expensive (every
// reconfiguration sweep is the dominant per-batch cost, §III-C), so durable
// state is snapshot + log-replay rather than replaying every mutation
// through compaction. Each compaction writes a fresh snapshot and rotates
// the log, so the replay tail stays bounded by the compaction threshold.
//
// File layout (all little-endian):
//
//	offset  size  field
//	0       4     magic "APWL"
//	4       4     format version (currently 1)
//	8       4     dim — bits per vector of insert payloads
//	12      4     reserved (zero)
//	16      ...   records
//
// Record framing:
//
//	offset  size  field
//	0       4     payload length
//	4       4     CRC32 (Castagnoli) of the payload
//	8       len   payload
//
// Payloads begin with a one-byte record type:
//
//	insert  (1): uint64 global ID, then WordsFor(dim) packed uint64 words
//	delete  (2): uint64 global ID
//	barrier (3): uint64 generation, uint64 NextID — the compaction cut:
//	             every record before the barrier is folded into the
//	             snapshot of that generation
//
// A torn final record — the header or payload cut short by a crash, or a
// checksum that does not match because the write never completed — is not
// corruption: Open stops replay at the last valid record and truncates the
// tail so new appends extend a clean prefix.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aperr"
	"repro/internal/bitvec"
	"repro/internal/obs"
)

// The durability tier's latency histograms: how long acknowledged mutations
// wait on the log. Fsync dominates under SyncAlways — these two series are
// what separates "the disk is slow" from "the scan is slow" when a live
// index's insert latency moves.
var (
	appendHist = obs.NewHistogram("apknn_wal_append_seconds",
		"WAL record append latency including any policy-driven fsync")
	fsyncHist = obs.NewHistogram("apknn_wal_fsync_seconds",
		"WAL fsync latency per sync call")
)

// Magic is the four-byte file signature of the write-ahead log format.
const Magic = "APWL"

// version is the current format version written by Create.
const version = 1

// headerLen is the fixed byte length of the log file header.
const headerLen = 4 + 4 + 4 + 4

// recHeaderLen is the per-record framing: payload length + CRC32C.
const recHeaderLen = 4 + 4

// castagnoli is the CRC32C table shared by append and replay.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecordType tags a WAL record payload.
type RecordType uint8

const (
	// RecInsert is an insert with its assigned global ID and packed vector.
	RecInsert RecordType = 1
	// RecDelete is a tombstone for a global ID.
	RecDelete RecordType = 2
	// RecBarrier marks a compaction cut: the snapshot of the recorded
	// generation folds every record before the barrier.
	RecBarrier RecordType = 3
)

// Record is one decoded WAL entry. Only the fields of its type are set.
type Record struct {
	Type RecordType
	// ID is the global ID an insert assigned or a delete targets.
	ID int
	// Words is the packed vector payload of an insert; it aliases the replay
	// buffer during Open's apply callback and must be copied to retain.
	Words []uint64
	// Gen and NextID are the barrier's generation and ID watermark.
	Gen    int64
	NextID int
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged mutation
	// survives power loss. The default, and the slowest.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer the owner drives (Log.Sync); a crash
	// loses at most one interval of acknowledged mutations.
	SyncInterval
	// SyncNever leaves flushing to the OS: process crashes lose nothing
	// (writes are in the page cache), power loss may lose the tail.
	SyncNever
)

// String names the policy the way the -fsync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParsePolicy parses the -fsync flag values.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// Options tunes a Log.
type Options struct {
	// Policy selects when appends are fsynced (default SyncAlways).
	Policy SyncPolicy
	// FS is the filesystem the log lives on (default OS).
	FS FS
}

func (o Options) fs() FS {
	if o.FS == nil {
		return OS
	}
	return o.FS
}

// Stats is the point-in-time counter block of one Log.
type Stats struct {
	// Appends is the number of records appended since Open/Create.
	Appends int64
	// Bytes is the total record bytes appended since Open/Create.
	Bytes int64
	// Fsyncs is the number of fsync calls issued.
	Fsyncs int64
	// Size is the current file size including the header and any replayed
	// prefix.
	Size int64
}

// Replay reports what Open reconstructed from an existing log.
type Replay struct {
	// Records successfully decoded and applied.
	Records int
	// Bytes of valid record data replayed (header excluded).
	Bytes int64
	// Torn reports that the file ended in a partial or corrupt record that
	// was truncated away — the expected shape of a crash mid-append.
	Torn bool
}

// Log is an open write-ahead log positioned for appending. Append and Sync
// are safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	fs      FS
	f       File
	path    string // where the log is published; its errors name it (see named)
	buf     []byte // reusable append encode buffer
	dim     int
	wordsPV int
	policy  SyncPolicy
	closed  bool
	// err is the first failed write or fsync. The file may then hold part or
	// all of a record past the last acknowledged one, and a crash may keep or
	// drop it, so nothing is acknowledged after it: every later Append, Sync
	// and Rotate fails wrapping err, until a reopen replays what survived.
	err error

	appends atomic.Int64
	bytes   atomic.Int64
	fsyncs  atomic.Int64
	// size is the log's acknowledged length: header plus every record an
	// Append returned nil for.
	size atomic.Int64
}

// Create writes a fresh, empty log at path — header only — and returns it
// open for appending. It is CreateWith without head records.
func Create(path string, dim int, opts Options) (*Log, error) {
	return CreateWith(path, dim, opts, nil)
}

// CreateWith publishes a new log at path holding the header and head, and
// returns it open for appending after them. The log is assembled at
// path.tmp, synced, and renamed into place (see WriteFile), so a log that
// exists under its name always holds its whole head: recovery never has to
// tell a torn header from a foreign file. An existing file at path is
// replaced.
func CreateWith(path string, dim int, opts Options, head []Record) (*Log, error) {
	l, err := create(opts.fs(), path, dim, opts.Policy, head)
	if err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", path, err)
	}
	return l, nil
}

func create(fsys FS, path string, dim int, policy SyncPolicy, head []Record) (*Log, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("wal: non-positive dim %d: %w", dim, aperr.ErrBadFormat)
	}
	l := newLog(fsys, nil, path, dim, policy)
	b := append(make([]byte, 0, headerLen), Magic...)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(dim))
	b = binary.LittleEndian.AppendUint32(b, 0)
	for _, rec := range head {
		var err error
		if b, err = l.appendRecord(b, rec); err != nil {
			return nil, err
		}
	}
	f, err := publish(fsys, path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	l.f = f
	l.appends.Store(int64(len(head)))
	l.bytes.Store(int64(len(b) - headerLen))
	l.size.Store(int64(len(b)))
	l.fsyncs.Store(1)
	return l, nil
}

// Open replays an existing log at path: the header is validated against dim,
// every intact record is decoded and handed to apply in order, a torn tail
// is truncated away, and the returned Log is positioned to append after the
// last valid record. A nil apply skips decoding side effects but still
// validates framing.
func Open(path string, dim int, opts Options, apply func(Record) error) (*Log, Replay, error) {
	if dim <= 0 {
		return nil, Replay{}, fmt.Errorf("wal: non-positive dim %d: %w", dim, aperr.ErrBadFormat)
	}
	f, err := opts.fs().OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, Replay{}, err
	}
	info, err := replayFile(f, dim, apply)
	if err != nil {
		f.Close()
		return nil, Replay{}, err
	}
	l := newLog(opts.fs(), f, path, dim, opts.Policy)
	l.size.Store(headerLen + info.Bytes)
	return l, info, nil
}

func newLog(fsys FS, f File, path string, dim int, policy SyncPolicy) *Log {
	return &Log{
		fs:      fsys,
		f:       f,
		path:    path,
		dim:     dim,
		wordsPV: bitvec.WordsFor(dim),
		policy:  policy,
	}
}

// replayFile validates the header, streams records through apply, truncates
// any torn tail, and leaves the file offset at the end of the valid prefix.
func replayFile(f File, dim int, apply func(Record) error) (Replay, error) {
	var info Replay
	r := bufio.NewReader(f)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return info, fmt.Errorf("wal: log header: %w", aperr.ErrTruncated)
		}
		return info, fmt.Errorf("wal: read log header: %w", err)
	}
	if string(hdr[0:4]) != Magic {
		return info, fmt.Errorf("wal: bad magic %q (want %q): %w", hdr[0:4], Magic, aperr.ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != version {
		return info, fmt.Errorf("wal: unsupported log version %d (want %d): %w", v, version, aperr.ErrBadFormat)
	}
	if d := binary.LittleEndian.Uint32(hdr[8:12]); int(d) != dim {
		return info, fmt.Errorf("wal: log dim %d, index dim %d: %w", d, dim, aperr.ErrDimMismatch)
	}
	wordsPV := bitvec.WordsFor(dim)
	maxPayload := 1 + 8 + 8 + 8*wordsPV // barrier and insert are the widest
	var rh [recHeaderLen]byte
	payload := make([]byte, maxPayload)
	valid := int64(headerLen)
	for {
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			if errors.Is(err, io.EOF) {
				break // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				info.Torn = true
				break
			}
			return info, fmt.Errorf("wal: read record header: %w", err)
		}
		n := binary.LittleEndian.Uint32(rh[0:4])
		want := binary.LittleEndian.Uint32(rh[4:8])
		if n == 0 || int(n) > maxPayload {
			// An impossible length is indistinguishable from a torn header
			// half-written over garbage; stop here and truncate.
			info.Torn = true
			break
		}
		if _, err := io.ReadFull(r, payload[:n]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				info.Torn = true
				break
			}
			return info, fmt.Errorf("wal: read record payload: %w", err)
		}
		if crc32.Checksum(payload[:n], castagnoli) != want {
			info.Torn = true
			break
		}
		rec, err := decode(payload[:n], wordsPV)
		if err != nil {
			info.Torn = true
			break
		}
		if apply != nil {
			if err := apply(rec); err != nil {
				return info, fmt.Errorf("wal: replay record %d: %w", info.Records, err)
			}
		}
		info.Records++
		info.Bytes += recHeaderLen + int64(n)
		valid += recHeaderLen + int64(n)
	}
	if info.Torn {
		if err := f.Truncate(valid); err != nil {
			return info, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return info, fmt.Errorf("wal: seek: %w", err)
	}
	return info, nil
}

// decode parses one payload. Lengths are validated exactly against the
// record type so a bit-flipped type byte cannot smuggle a short vector in.
func decode(p []byte, wordsPV int) (Record, error) {
	switch RecordType(p[0]) {
	case RecInsert:
		if len(p) != 1+8+8*wordsPV {
			return Record{}, fmt.Errorf("wal: insert payload %d bytes, want %d: %w", len(p), 1+8+8*wordsPV, aperr.ErrBadFormat)
		}
		words := make([]uint64, wordsPV)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(p[9+8*i:])
		}
		return Record{Type: RecInsert, ID: int(binary.LittleEndian.Uint64(p[1:9])), Words: words}, nil
	case RecDelete:
		if len(p) != 1+8 {
			return Record{}, fmt.Errorf("wal: delete payload %d bytes, want 9: %w", len(p), aperr.ErrBadFormat)
		}
		return Record{Type: RecDelete, ID: int(binary.LittleEndian.Uint64(p[1:9]))}, nil
	case RecBarrier:
		if len(p) != 1+8+8 {
			return Record{}, fmt.Errorf("wal: barrier payload %d bytes, want 17: %w", len(p), aperr.ErrBadFormat)
		}
		return Record{
			Type:   RecBarrier,
			Gen:    int64(binary.LittleEndian.Uint64(p[1:9])),
			NextID: int(binary.LittleEndian.Uint64(p[9:17])),
		}, nil
	default:
		return Record{}, fmt.Errorf("wal: unknown record type %d: %w", p[0], aperr.ErrBadFormat)
	}
}

// Append encodes rec, writes it in a single write call, and fsyncs when the
// policy is SyncAlways. The record is durable (per policy) when Append
// returns; callers publish the mutation to readers only after that. A failed
// write or fsync poisons the log (see Log.err).
func (l *Log) Append(rec Record) error {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable("append"); err != nil {
		return err
	}
	b, err := l.appendRecord(l.buf[:0], rec)
	if err != nil {
		return err
	}
	l.buf = b
	if _, err := l.f.Write(b); err != nil {
		return l.fail(fmt.Errorf("wal: append: %w", l.named(err)))
	}
	if l.policy == SyncAlways {
		if err := l.fsync(); err != nil {
			return l.fail(err)
		}
	}
	l.appends.Add(1)
	l.bytes.Add(int64(len(b)))
	l.size.Add(int64(len(b)))
	appendHist.Record(time.Since(start))
	return nil
}

// usable reports why l cannot take an op: closed, or poisoned. Callers hold
// l.mu.
func (l *Log) usable(op string) error {
	if l.closed {
		return fmt.Errorf("wal: %s: %w", op, aperr.ErrClosed)
	}
	if l.err != nil {
		return fmt.Errorf("wal: %s refused after an earlier failure (reopen to recover): %w", op, l.err)
	}
	return nil
}

// fail poisons l with err, first cutting the file back to its acknowledged
// length where it can, so that a crash from here on replays no part of the
// failed record. Callers hold l.mu.
func (l *Log) fail(err error) error {
	// Best effort: what a failed truncate leaves, replay reads as a torn
	// tail or as the failed record, which either way was never acknowledged.
	_ = l.f.Truncate(l.size.Load())
	l.err = err
	return err
}

// named re-labels a file error with the log's published path: a log that
// create published keeps the handle it opened at path.tmp, whose errors name
// that file.
func (l *Log) named(err error) error {
	if pe, ok := err.(*fs.PathError); ok && pe.Path != l.path {
		return &fs.PathError{Op: pe.Op, Path: l.path, Err: pe.Err}
	}
	return err
}

// Err returns nil while l takes appends and, once a failure has poisoned it,
// the error Rotate refuses with, wrapping that failure. It touches no file.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		return nil
	}
	return l.usable("rotate")
}

// fsync syncs the file and counts it. Callers hold l.mu.
func (l *Log) fsync() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", l.named(err))
	}
	fsyncHist.Record(time.Since(start))
	l.fsyncs.Add(1)
	return nil
}

// appendRecord appends rec to b, framed: length, CRC32C, payload.
func (l *Log) appendRecord(b []byte, rec Record) ([]byte, error) {
	at := len(b)
	b = append(b, make([]byte, recHeaderLen)...)
	switch rec.Type {
	case RecInsert:
		if len(rec.Words) != l.wordsPV {
			return nil, fmt.Errorf("wal: insert vector has %d words, want %d: %w", len(rec.Words), l.wordsPV, aperr.ErrDimMismatch)
		}
		b = append(b, byte(RecInsert))
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.ID))
		for _, w := range rec.Words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	case RecDelete:
		b = append(b, byte(RecDelete))
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.ID))
	case RecBarrier:
		b = append(b, byte(RecBarrier))
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.Gen))
		b = binary.LittleEndian.AppendUint64(b, uint64(rec.NextID))
	default:
		return nil, fmt.Errorf("wal: unknown record type %d: %w", rec.Type, aperr.ErrBadFormat)
	}
	payload := b[at+recHeaderLen:]
	binary.LittleEndian.PutUint32(b[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[at+4:], crc32.Checksum(payload, castagnoli))
	return b, nil
}

// Sync flushes appended records to stable storage — the interval policy's
// timer calls this; explicit checkpoints may too. A failure poisons the log.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable("sync"); err != nil {
		return err
	}
	if err := l.fsync(); err != nil {
		return l.fail(err)
	}
	return nil
}

// Rotate publishes the next log at path holding head, on l's filesystem and
// policy (see CreateWith); the caller closes l once it has switched over. A
// poisoned l refuses. If the new log is renamed into place but the directory
// sync fails, a crash may find either log, so neither may take an append:
// Rotate removes the new log again, and if that cannot be made durable
// either, it poisons l.
func (l *Log) Rotate(path string, head []Record) (*Log, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable("rotate"); err != nil {
		return nil, err
	}
	next, err := create(l.fs, path, l.dim, l.policy, head)
	if err == nil {
		return next, nil
	}
	err = fmt.Errorf("wal: rotate to %s: %w", path, err)
	if errors.Is(err, errUnsettled) {
		if l.fs.Remove(path) != nil || l.fs.SyncDir(filepath.Dir(path)) != nil {
			l.err = err
		}
	}
	return nil, err
}

// Close syncs and closes the log. Closing twice is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	syncErr := l.fsync()
	closeErr := l.f.Close()
	if syncErr != nil {
		return fmt.Errorf("wal: close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close: %w", l.named(closeErr))
	}
	return nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends: l.appends.Load(),
		Bytes:   l.bytes.Load(),
		Fsyncs:  l.fsyncs.Load(),
		Size:    l.size.Load(),
	}
}

// InsertRecord builds an insert record from a vector. The words are
// referenced, not copied — the caller's vector must stay immutable until
// Append returns (live's writer lock guarantees it).
func InsertRecord(id int, v bitvec.Vector) Record {
	return Record{Type: RecInsert, ID: id, Words: v.Words()}
}
