// Package aperr declares the typed sentinel errors shared by every engine
// and backend in this repository. Callers match them with errors.Is; the
// public package re-exports them (apknn.ErrBadK and friends) so API users
// never import an internal path.
package aperr

import (
	"errors"
	"fmt"
)

var (
	// ErrDimMismatch reports a query whose dimensionality differs from the
	// dataset (or stream layout) it is searched against.
	ErrDimMismatch = errors.New("dimension mismatch")
	// ErrEmptyDataset reports an attempt to compile an index over no vectors.
	ErrEmptyDataset = errors.New("empty dataset")
	// ErrBadK reports a non-positive neighbor count.
	ErrBadK = errors.New("k must be positive")
	// ErrCanceled reports a query aborted by its context. The wrapped error
	// carries the context's own cause (context.Canceled or DeadlineExceeded).
	ErrCanceled = errors.New("query canceled")
	// ErrUnknownBackend reports a backend kind with no implementation.
	ErrUnknownBackend = errors.New("unknown backend")
	// ErrNotFound reports a mutation naming an ID the index does not hold —
	// never assigned, or already deleted.
	ErrNotFound = errors.New("id not found")
	// ErrBadFormat reports a persisted file (dataset, snapshot, or WAL) whose
	// header or structure is not the expected format: wrong magic, unsupported
	// version, impossible geometry, or non-canonical payload bits.
	ErrBadFormat = errors.New("bad file format")
	// ErrTruncated reports a persisted file that ends before its declared
	// payload does — a short read, never a silent partial parse.
	ErrTruncated = errors.New("truncated file")
	// ErrClosed reports an operation on an index after Close released its
	// durable handles.
	ErrClosed = errors.New("index closed")
)

// Canceled wraps ErrCanceled with the context's cause so errors.Is matches
// the sentinel while the message still says why the query stopped.
func Canceled(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %v", ErrCanceled, cause)
}
