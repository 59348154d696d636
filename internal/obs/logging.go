package obs

import (
	"fmt"
	"io"
	"log/slog"
)

// NewLogger builds the process logger the server binaries use: text (the
// default, one key=value line per record) or json (one JSON object per
// line, for log shippers). Both formats carry the same keys, so switching
// -log-format never loses information.
func NewLogger(format string, w io.Writer) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
}

// PprofFlagDoc is the shared help text of the -pprof flag.
const PprofFlagDoc = "expose net/http/pprof profiling handlers under /debug/pprof/ (off by default)"
