// Package ap models the Micron Automata Processor as a device: the resource
// hierarchy of paper §II-B (blocks of STEs, counters and boolean elements,
// grouped into half-cores, chips and ranks), a compiler/placer that maps
// automata networks onto those resources and emits apadmin-style utilization
// reports, and a board runtime that executes configurations on the
// cycle-accurate simulator while accounting for reconfiguration and
// streaming time.
package ap

import (
	"fmt"
	"time"
)

// Architecture constants from paper §II-B.
const (
	STEsPerBlock      = 256
	CountersPerBlock  = 4
	BooleansPerBlock  = 12
	ReportingPerBlock = 32
	BlocksPerHalfCore = 96
	// STEsPerHalfCore is the maximum NFA size: "the maximum size automata
	// that can be implemented is limited to 24,576 states".
	STEsPerHalfCore  = STEsPerBlock * BlocksPerHalfCore // 24576
	HalfCoresPerChip = 2
	ChipsPerRank     = 8
	RanksPerBoard    = 4
)

// DeviceConfig describes one AP board variant. The two generations differ
// only in partial-reconfiguration latency (§III-C): Gen 1 needs 45 ms per
// reconfiguration; Gen 2 is projected two orders of magnitude faster.
type DeviceConfig struct {
	Name string
	// Ranks populated on the board (a full board has 4).
	Ranks int
	// ClockHz is the symbol-stream clock: 133 MHz, i.e. 7.5 ns per symbol.
	ClockHz float64
	// ReconfigLatency is the partial-reconfiguration time per board image.
	ReconfigLatency time.Duration
	// MaxFanIn is the routing-matrix fan-in the placer accepts per element
	// before demanding a reduction tree (§III-A "limit the maximum state fan
	// in and improve routability").
	MaxFanIn int
	// MaxFanOut is the fan-out budget per element used by the routing
	// pressure heuristic (§VI-A).
	MaxFanOut int
	// CompilerAreaFactor inflates each NFA's STE footprint before block
	// rounding, modeling the routing-driven spreading the real AP compiler
	// exhibits but a functional placer cannot see. Zero or one means tight
	// packing; PaperAreaFactor reproduces the §V-A apadmin reports.
	CompilerAreaFactor float64
}

// PaperAreaFactor is the area inflation calibrated against the paper's
// §V-A utilization figures (41.7% / 90.9% / 78.6%): the published reports
// imply roughly 4.7 STE slots of rectangular block area per design STE.
const PaperAreaFactor = 4.7

// Gen1 returns the current-generation board evaluated in the paper.
func Gen1() DeviceConfig {
	return DeviceConfig{
		Name:            "AP Gen 1",
		Ranks:           RanksPerBoard,
		ClockHz:         133e6,
		ReconfigLatency: 45 * time.Millisecond,
		MaxFanIn:        16,
		MaxFanOut:       16,
	}
}

// Gen2 returns the projected next-generation board: ~100x faster partial
// reconfiguration (§III-C), all else equal.
func Gen2() DeviceConfig {
	cfg := Gen1()
	cfg.Name = "AP Gen 2"
	cfg.ReconfigLatency = 450 * time.Microsecond
	return cfg
}

// HalfCores returns the number of half-cores on the board.
func (c DeviceConfig) HalfCores() int {
	return c.Ranks * ChipsPerRank * HalfCoresPerChip
}

// TotalSTEs returns the STE capacity of the board.
func (c DeviceConfig) TotalSTEs() int {
	return c.HalfCores() * STEsPerHalfCore
}

// TotalBlocks returns the block count of the board.
func (c DeviceConfig) TotalBlocks() int {
	return c.HalfCores() * BlocksPerHalfCore
}

// TotalCounters returns the counter capacity of the board.
func (c DeviceConfig) TotalCounters() int {
	return c.TotalBlocks() * CountersPerBlock
}

// TotalBooleans returns the boolean-element capacity of the board.
func (c DeviceConfig) TotalBooleans() int {
	return c.TotalBlocks() * BooleansPerBlock
}

// TotalReporting returns the reporting-STE capacity of the board.
func (c DeviceConfig) TotalReporting() int {
	return c.TotalBlocks() * ReportingPerBlock
}

// SymbolPeriod returns the wall-clock duration of one symbol cycle.
func (c DeviceConfig) SymbolPeriod() time.Duration {
	return time.Duration(float64(time.Second) / c.ClockHz)
}

// StreamTime returns the modeled wall-clock time to stream n symbols.
func (c DeviceConfig) StreamTime(symbols int) time.Duration {
	return time.Duration(float64(symbols) / c.ClockHz * float64(time.Second))
}

// ModeledTime returns the modeled wall-clock of a board that has streamed
// symbols and loaded reconfigs configurations: streaming at the symbol
// clock plus reconfiguration latency per configuration. The first
// configuration is not charged — datasets are loaded before queries arrive,
// matching the paper's methodology of excluding offline compilation and
// initial setup.
func (c DeviceConfig) ModeledTime(symbols, reconfigs int) time.Duration {
	t := c.StreamTime(symbols)
	if reconfigs > 1 {
		t += time.Duration(reconfigs-1) * c.ReconfigLatency
	}
	return t
}

func (c DeviceConfig) String() string {
	return fmt.Sprintf("%s (%d ranks, %.0f MHz, reconfig %v)",
		c.Name, c.Ranks, c.ClockHz/1e6, c.ReconfigLatency)
}
