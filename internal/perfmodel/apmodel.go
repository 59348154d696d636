package perfmodel

import (
	"time"

	"repro/internal/ap"
	"repro/internal/core"
)

// APSymbolsPerQuery is the paper's per-query symbol budget: d query symbols
// plus SOF/EOF framing. The published runtimes (Tables III/IV) fit
// q*(d+2)*7.5ns exactly, which implies the sorting phase of one query is
// overlapped with the Hamming phase of the next; our functional stream
// (core.Layout.StreamLen, ~2d+Δ) is the conservative non-overlapped variant.
// Both are reported by the harness.
func APSymbolsPerQuery(dim int) int { return dim + 2 }

// APTime models a linear-scan kNN batch on the AP: the dataset spans
// ceil(n/capacity) board images; each image is loaded (one partial
// reconfiguration) and the full query batch streamed through it (§III-C).
// A single-image dataset needs no reconfiguration, matching Table III.
func APTime(cfg ap.DeviceConfig, n, queries, dim int) time.Duration {
	return apTime(cfg, n, queries, dim, APSymbolsPerQuery(dim))
}

// APFunctionalTime is the non-overlapped variant using the functional
// stream layout this repository actually executes.
func APFunctionalTime(cfg ap.DeviceConfig, n, queries, dim int) time.Duration {
	return apTime(cfg, n, queries, dim, core.NewLayout(dim).StreamLen())
}

// apTime is the AP batch time at the given symbols per query.
func apTime(cfg ap.DeviceConfig, n, queries, dim, symbolsPerQuery int) time.Duration {
	capacity := core.DefaultBoardCapacity(dim)
	partitions := (n + capacity - 1) / capacity
	stream := cfg.StreamTime(queries * symbolsPerQuery)
	total := time.Duration(partitions) * stream
	if partitions > 1 {
		total += time.Duration(partitions) * cfg.ReconfigLatency
	}
	return total
}

// OptExtGains breaks down the Table VIII compounded improvement for one
// workload dimensionality, computed from this repository's own analytical
// models: technology scaling (§VII-D), vector packing in groups of 4
// (§VI-A), STE decomposition at x=4 (§VII-C) and the counter-increment
// extension (§VII-A).
type OptExtGains struct {
	TechScaling      float64
	VectorPacking    float64
	STEDecomposition float64
	CounterIncrement float64
}

// Total compounds the mutually orthogonal gains.
func (g OptExtGains) Total() float64 {
	return g.TechScaling * g.VectorPacking * g.STEDecomposition * g.CounterIncrement
}

// ComputeOptExtGains evaluates the gains for a code dimensionality using
// the paper's parameter choices (§VII-D: 28 nm target, pack groups of 4,
// decomposition factor 4, 7-dim counter increments).
func ComputeOptExtGains(dim int) OptExtGains {
	layout := core.NewLayout(dim)
	return OptExtGains{
		TechScaling:      core.TechnologyScaling(28),
		VectorPacking:    core.PackingSavings(layout, 4),
		STEDecomposition: decompositionSavings(dim, 4),
		CounterIncrement: core.NewMultiDimLayout(dim).SpeedupOverPlain(),
	}
}

// decompositionSavings evaluates §VII-C's model on an actual generated
// macro for the dimensionality.
func decompositionSavings(dim, factor int) float64 {
	rep := macroDecomposition(dim)
	return rep.Savings(factor)
}

// APOptExtTime applies the compounded gains to the Gen 2 runtime, the
// paper's "AP (Opt+Ext)" column of Table IV.
func APOptExtTime(n, queries, dim int) time.Duration {
	base := APTime(ap.Gen2(), n, queries, dim)
	return time.Duration(float64(base) / ComputeOptExtGains(dim).Total())
}

// ReportBandwidthGbps is the §VI-C sustained report-bandwidth estimate: a
// query delivering n sparse-vector activations (32 bits each) plus 32*d bits
// of offsets every 2d cycles at 7.5 ns.
func ReportBandwidthGbps(n, dim int) float64 {
	bitsPerQuery := 32 * float64(n+dim)
	seconds := float64(2*dim) * 7.5e-9
	return bitsPerQuery / seconds / 1e9
}
