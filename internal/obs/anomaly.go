package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// The watcher's fixed tuning: it checks the windowed p99 every
// anomalyInterval, trips at anomalyFactor×Target, and dumps at most one
// bundle per anomalyCooldown, so a sustained breach produces one bundle per
// episode rather than one per tick.
const (
	anomalyFactor   = 3.0
	anomalyInterval = 2 * time.Second
	anomalyCooldown = 30 * time.Second
)

// AnomalyConfig tunes an AnomalyWatcher.
type AnomalyConfig struct {
	// Target is the latency objective the watcher guards; a windowed p99 at
	// or above 3×Target trips a dump. Required.
	Target time.Duration
	// Dir receives one bundle directory per trip (required).
	Dir string
	// Profiles adds heap and goroutine pprof profiles to each bundle.
	Profiles bool
	// Logger, when non-nil, gets one structured line per trip.
	Logger *slog.Logger
}

// AnomalyWatcher is the always-on tail guard: a background loop compares
// the windowed end-to-end p99 against a multiple of the target and, on
// breach, dumps a post-mortem bundle — retained traces, per-metric window
// summaries, and optional runtime profiles — into AnomalyConfig.Dir.
type AnomalyWatcher struct {
	cfg AnomalyConfig
	p99 func(now time.Time) int64
	rec *FlightRecorder
	reg *Registry

	trips    atomic.Int64
	lastTrip atomic.Int64 // unix ns of the last dump
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewAnomalyWatcher builds and starts a watcher. p99 reports the windowed
// end-to-end p99 in nanoseconds (0 = no traffic); rec supplies the traces
// and reg the window summaries of each bundle. Close stops the loop.
func NewAnomalyWatcher(cfg AnomalyConfig, p99 func(now time.Time) int64,
	rec *FlightRecorder, reg *Registry) *AnomalyWatcher {
	w := &AnomalyWatcher{
		cfg:  cfg,
		p99:  p99,
		rec:  rec,
		reg:  reg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.run()
	return w
}

// Register exports the watcher's dump count on s.
func (w *AnomalyWatcher) Register(s *Set) {
	s.CounterFunc("apknn_anomaly_dumps_total", "Anomaly bundles dumped to the debug directory", w.Trips)
}

// Trips returns how many bundles the watcher has dumped.
func (w *AnomalyWatcher) Trips() int64 {
	if w == nil {
		return 0
	}
	return w.trips.Load()
}

// Close stops the watcher loop; safe to call more than once.
func (w *AnomalyWatcher) Close() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

func (w *AnomalyWatcher) run() {
	defer close(w.done)
	ticker := time.NewTicker(anomalyInterval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-ticker.C:
			w.check(now)
		}
	}
}

func (w *AnomalyWatcher) check(now time.Time) {
	p := w.p99(now)
	threshold := anomalyFactor * float64(w.cfg.Target.Nanoseconds())
	if p <= 0 || float64(p) < threshold {
		return
	}
	if last := w.lastTrip.Load(); last > 0 && now.UnixNano()-last < anomalyCooldown.Nanoseconds() {
		return
	}
	w.lastTrip.Store(now.UnixNano())
	w.trips.Add(1)
	dir, err := w.dump(now, p)
	if lg := w.cfg.Logger; lg != nil {
		if err != nil {
			lg.Error("anomaly dump failed",
				"p99", time.Duration(p), "target", w.cfg.Target, "factor", anomalyFactor, "error", err)
		} else {
			lg.Warn("anomaly detected: p99 breached target multiple",
				"p99", time.Duration(p), "target", w.cfg.Target, "factor", anomalyFactor, "bundle", dir)
		}
	}
}

// dump writes one bundle directory: meta.json (what tripped), traces.json
// (the flight recorder's full retained set), windows.json (per-metric
// minute-window summaries), and optional heap/goroutine profiles.
func (w *AnomalyWatcher) dump(now time.Time, p99 int64) (string, error) {
	dir := filepath.Join(w.cfg.Dir, "anomaly-"+now.UTC().Format("20060102T150405.000Z"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	meta := map[string]interface{}{
		"tripped_at_unix_ns": now.UnixNano(),
		"window_p99_ns":      p99,
		"target_ns":          w.cfg.Target.Nanoseconds(),
		"factor":             anomalyFactor,
	}
	if err := writeJSONFile(filepath.Join(dir, "meta.json"), meta); err != nil {
		return dir, err
	}
	if err := writeJSONFile(filepath.Join(dir, "traces.json"), w.rec.Dump()); err != nil {
		return dir, err
	}
	if w.reg != nil {
		if err := writeJSONFile(filepath.Join(dir, "windows.json"), w.reg.WindowSummaries(now)); err != nil {
			return dir, err
		}
	}
	if w.cfg.Profiles {
		for _, name := range []string{"heap", "goroutine"} {
			if err := writeProfile(filepath.Join(dir, name+".pprof"), name); err != nil {
				return dir, fmt.Errorf("write %s profile: %w", name, err)
			}
		}
	}
	return dir, nil
}

func writeJSONFile(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeProfile(path, name string) error {
	prof := pprof.Lookup(name)
	if prof == nil {
		return fmt.Errorf("unknown profile %q", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := prof.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
