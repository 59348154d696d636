package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem every durable file reaches stable storage through:
// the write-ahead log, the live index's snapshots and generation directory,
// and saved datasets. OS is the real one; tests substitute an in-memory image
// that fails or crashes at a chosen call (package memfs). The calls are the
// os package's, but for ReadDir, which returns the sorted names of the
// regular files in dir, and SyncDir, which makes the creates, renames and
// removes in dir durable.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(dir string) ([]string, error)
	MkdirAll(dir string, perm os.FileMode) error
	SyncDir(dir string) error
}

// File is an open file of an FS; *os.File is one.
type File interface {
	io.ReadWriteSeeker
	io.Closer
	Truncate(size int64) error
	Sync() error
}

// OS is the operating system's filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// errUnsettled marks a publish that failed after its rename: the new file is
// in place under its name, but a power loss may still bring the old entry
// back.
var errUnsettled = errors.New("renamed, but the directory sync failed")

// publish is the one way a durable file is written: write writes path.tmp,
// which is fsynced and renamed over path, and then the directory is fsynced.
// A crash at any point leaves path holding either its old contents or all of
// the new. A failure before the rename removes path.tmp and leaves path as it
// was; a failed directory sync wraps errUnsettled. On success the file is
// returned open, positioned after what write wrote.
func publish(fsys FS, path string, write func(io.Writer) error) (File, error) {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err = write(w); err == nil {
		if err = w.Flush(); err == nil {
			if err = f.Sync(); err == nil {
				err = fsys.Rename(tmp, path)
			}
		}
	}
	if err != nil {
		f.Close()
		_ = fsys.Remove(tmp) // a stray .tmp is never read, and recovery removes it
		return nil, err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %w", errUnsettled, err)
	}
	return f, nil
}

// WriteFile publishes what write writes as path's new contents on fsys,
// atomically and durably: after a crash at any point path loads as its old
// contents or as the new ones, never as a mix.
func WriteFile(fsys FS, path string, write func(io.Writer) error) error {
	f, err := publish(fsys, path, write)
	if err != nil {
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	return f.Close()
}

// ReadFile hands read a buffered reader over path on fsys.
func ReadFile(fsys FS, path string, read func(io.Reader) error) error {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return read(bufio.NewReader(f))
}
