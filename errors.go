package apknn

import "repro/internal/aperr"

// The typed sentinel errors every backend returns; match them with
// errors.Is. They replace the ad-hoc error strings of the pre-Backend API,
// and the internal engines wrap the same sentinels, so a failure surfaces
// the matching sentinel no matter how deep it originated.
var (
	// ErrDimMismatch reports a query whose dimensionality differs from the
	// dataset it is searched against.
	ErrDimMismatch = aperr.ErrDimMismatch
	// ErrEmptyDataset reports an Open over a nil or empty dataset.
	ErrEmptyDataset = aperr.ErrEmptyDataset
	// ErrBadK reports a non-positive neighbor count.
	ErrBadK = aperr.ErrBadK
	// ErrCanceled reports a search aborted by its context; the error chain
	// also carries the context's own cause.
	ErrCanceled = aperr.ErrCanceled
	// ErrUnknownBackend reports an Open or OpenLive with an unknown backend kind.
	ErrUnknownBackend = aperr.ErrUnknownBackend
	// ErrNotFound reports a Delete naming an ID the live index does not
	// hold — never assigned, or already deleted.
	ErrNotFound = aperr.ErrNotFound
	// ErrBadFormat reports a persisted file (dataset, snapshot, write-ahead
	// log) whose header or structure is not the expected format: wrong magic,
	// unsupported version, impossible geometry, non-canonical payload bits.
	ErrBadFormat = aperr.ErrBadFormat
	// ErrTruncated reports a persisted file that ends before its declared
	// payload does — a short read, never a silent partial parse.
	ErrTruncated = aperr.ErrTruncated
	// ErrClosed reports a mutation on a durable live index after Close
	// released its write-ahead-log handle.
	ErrClosed = aperr.ErrClosed
)
