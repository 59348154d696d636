// Package memfs is an in-memory wal.FS for tests: the only implementation of
// the seam besides wal.OS, imported by test files alone.
//
// The image tracks, per file, the bytes written and the bytes synced, and per
// directory the entries now and as of its last directory sync. Every call on
// the FS or on one of its files is numbered from 1, and a test can make call
// n fail the way a disk does (Fail) or crash the program just before it
// (Crash). Image then hands over what a restart would find after a process
// crash (every byte written, every entry) or a power loss (only synced bytes,
// only the entries a directory sync saw). Directories themselves are durable
// the moment they are made.
package memfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"repro/internal/wal"
)

// Op is the kind of one call.
type Op uint8

const (
	OpOpen Op = iota
	OpRead
	OpWrite
	OpSeek
	OpTruncate
	OpSync
	OpClose
	OpRename
	OpRemove
	OpReadDir
	OpMkdir
	OpSyncDir
)

// Fault is one way a call can fail.
type Fault uint8

const (
	// EIO fails a file Sync with EIO: nothing more of the file is synced.
	EIO Fault = iota + 1
	// ShortWrite lands half of a Write's bytes, then fails it with ENOSPC.
	ShortWrite
	// NoSpace fails a Write with ENOSPC before any byte lands.
	NoSpace
	// RenameFail fails a Rename with EIO: nothing moves.
	RenameFail
	// SyncDirFail fails a directory sync with EIO: no entry becomes durable.
	SyncDirFail
)

// Faults lists every Fault.
var Faults = []Fault{EIO, ShortWrite, NoSpace, RenameFail, SyncDirFail}

// Op is the kind of call f applies to.
func (f Fault) Op() Op {
	switch f {
	case EIO:
		return OpSync
	case ShortWrite, NoSpace:
		return OpWrite
	case RenameFail:
		return OpRename
	default:
		return OpSyncDir
	}
}

func (f Fault) String() string {
	return [...]string{"none", "fsync EIO", "short write ENOSPC", "ENOSPC", "rename EIO", "dir sync EIO"}[f]
}

// ErrCrashed is what every call returns from the crash on.
var ErrCrashed = errors.New("memfs: crashed")

type inode struct{ data, synced []byte }

type dir struct{ cur, durable map[string]*inode }

// FS is the image. The zero value is not usable; call New.
type FS struct {
	mu      sync.Mutex
	dirs    map[string]*dir
	calls   []Op
	faults  map[int]Fault
	crashAt int
	crashed bool
}

var _ wal.FS = (*FS)(nil)

// New returns an empty image.
func New() *FS { return &FS{dirs: map[string]*dir{}, faults: map[int]Fault{}} }

// Fail makes call n fail with f if that call is of f's kind.
func (m *FS) Fail(n int, f Fault) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults[n] = f
}

// Crash makes call n, and every call after it, fail with ErrCrashed. A Write
// crashed in lands half of its bytes first: a torn write.
func (m *FS) Crash(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAt = n
}

// Crashed reports whether the crash has happened.
func (m *FS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Calls returns the kind of every call so far, call n at index n-1.
func (m *FS) Calls() []Op {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Op(nil), m.calls...)
}

// Image returns what a restart finds: after a process crash everything
// written and every entry, after a power loss only the synced bytes and the
// durable entries. The image is a new FS, with no fault or crash scheduled.
func (m *FS) Image(powerLoss bool) *FS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := New()
	copies := map[*inode]*inode{}
	copyOf := func(ino *inode) *inode {
		c, ok := copies[ino]
		if !ok {
			c = &inode{data: clone(ino.data), synced: clone(ino.synced)}
			if powerLoss {
				c.data = clone(ino.synced)
			}
			copies[ino] = c
		}
		return c
	}
	for name, d := range m.dirs {
		nd := &dir{cur: map[string]*inode{}, durable: map[string]*inode{}}
		cur := d.cur
		if powerLoss {
			cur = d.durable
		}
		for n, ino := range cur {
			nd.cur[n] = copyOf(ino)
		}
		for n, ino := range d.durable {
			nd.durable[n] = copyOf(ino)
		}
		out.dirs[name] = nd
	}
	return out
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// call numbers one call of kind op and says how it goes: the fault to
// inject, if any, and ErrCrashed from the crash on. A Write the crash lands
// in is torn: it reports ShortWrite beside ErrCrashed. Callers hold m.mu.
func (m *FS) call(op Op) (Fault, error) {
	if m.crashed {
		return 0, ErrCrashed
	}
	m.calls = append(m.calls, op)
	n := len(m.calls)
	if n == m.crashAt {
		m.crashed = true
		if op == OpWrite {
			return ShortWrite, ErrCrashed
		}
		return 0, ErrCrashed
	}
	if f := m.faults[n]; f != 0 && f.Op() == op {
		return f, nil
	}
	return 0, nil
}

func pathErr(op, path string, err error) error { return &fs.PathError{Op: op, Path: path, Err: err} }

// lookup splits path into its directory and base name.
func (m *FS) lookup(op, path string) (*dir, string, error) {
	path = filepath.Clean(path)
	d, ok := m.dirs[filepath.Dir(path)]
	if !ok {
		return nil, "", pathErr(op, path, fs.ErrNotExist)
	}
	return d, filepath.Base(path), nil
}

func (m *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.call(OpOpen); err != nil {
		return nil, err
	}
	d, base, err := m.lookup("open", name)
	if err != nil {
		return nil, err
	}
	ino, ok := d.cur[base]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, pathErr("open", name, fs.ErrNotExist)
	case !ok:
		ino = &inode{}
		d.cur[base] = ino
	case flag&os.O_TRUNC != 0:
		ino.data = nil
	}
	return &file{m: m, ino: ino, name: name, writable: flag&(os.O_WRONLY|os.O_RDWR) != 0}, nil
}

func (m *FS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.call(OpRename)
	if err != nil {
		return err
	}
	if f == RenameFail {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EIO}
	}
	od, oname, err := m.lookup("rename", oldpath)
	if err != nil {
		return err
	}
	nd, nname, err := m.lookup("rename", newpath)
	if err != nil {
		return err
	}
	ino, ok := od.cur[oname]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	delete(od.cur, oname)
	nd.cur[nname] = ino
	return nil
}

func (m *FS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.call(OpRemove); err != nil {
		return err
	}
	d, base, err := m.lookup("remove", name)
	if err != nil {
		return err
	}
	if _, ok := d.cur[base]; !ok {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	delete(d.cur, base)
	return nil
}

func (m *FS) ReadDir(name string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.call(OpReadDir); err != nil {
		return nil, err
	}
	d, ok := m.dirs[filepath.Clean(name)]
	if !ok {
		return nil, pathErr("readdir", name, fs.ErrNotExist)
	}
	names := make([]string, 0, len(d.cur))
	for n := range d.cur {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *FS) MkdirAll(name string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.call(OpMkdir); err != nil {
		return err
	}
	name = filepath.Clean(name)
	if _, ok := m.dirs[name]; !ok {
		m.dirs[name] = &dir{cur: map[string]*inode{}, durable: map[string]*inode{}}
	}
	return nil
}

func (m *FS) SyncDir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.call(OpSyncDir)
	if err != nil {
		return err
	}
	if f == SyncDirFail {
		return pathErr("sync", name, syscall.EIO)
	}
	d, ok := m.dirs[filepath.Clean(name)]
	if !ok {
		return pathErr("sync", name, fs.ErrNotExist)
	}
	d.durable = make(map[string]*inode, len(d.cur))
	for n, ino := range d.cur {
		d.durable[n] = ino
	}
	return nil
}

// file is one open handle: an inode and an offset.
type file struct {
	m        *FS
	ino      *inode
	name     string
	off      int64
	writable bool
}

func (f *file) Read(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if _, err := f.m.call(OpRead); err != nil {
		return 0, err
	}
	if f.off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *file) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	fault, err := f.m.call(OpWrite)
	if err == nil && !f.writable {
		return 0, pathErr("write", f.name, fs.ErrPermission)
	}
	n := len(p)
	switch {
	case fault == ShortWrite:
		n /= 2
	case fault == NoSpace, err != nil:
		n = 0
	}
	if end := f.off + int64(n); end > int64(len(f.ino.data)) {
		f.ino.data = append(f.ino.data, make([]byte, end-int64(len(f.ino.data)))...)
	}
	copy(f.ino.data[f.off:], p[:n])
	f.off += int64(n)
	switch {
	case err != nil:
		return n, err
	case fault != 0:
		return n, pathErr("write", f.name, syscall.ENOSPC)
	}
	return n, nil
}

func (f *file) Seek(offset int64, whence int) (int64, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if _, err := f.m.call(OpSeek); err != nil {
		return 0, err
	}
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.ino.data))
	}
	if offset < 0 {
		return 0, pathErr("seek", f.name, fs.ErrInvalid)
	}
	f.off = offset
	return offset, nil
}

func (f *file) Truncate(size int64) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if _, err := f.m.call(OpTruncate); err != nil {
		return err
	}
	if size <= int64(len(f.ino.data)) {
		f.ino.data = f.ino.data[:size]
	} else {
		f.ino.data = append(f.ino.data, make([]byte, size-int64(len(f.ino.data)))...)
	}
	return nil
}

func (f *file) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	fault, err := f.m.call(OpSync)
	if err != nil {
		return err
	}
	if fault == EIO {
		return pathErr("sync", f.name, syscall.EIO)
	}
	f.ino.synced = clone(f.ino.data)
	return nil
}

func (f *file) Close() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if _, err := f.m.call(OpClose); err != nil {
		return err
	}
	return nil
}
