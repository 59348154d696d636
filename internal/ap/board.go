package ap

import (
	"fmt"
	"time"

	"repro/internal/automata"
)

// Board is the runtime view of an AP device: the host configures it with a
// compiled automata network, streams symbols through it, and collects report
// records — the workflow of paper Fig. 1. Alongside functional execution on
// the cycle-accurate simulator, the board accumulates the modeled wall-clock
// cost of every operation (reconfigurations at ReconfigLatency, streaming at
// the symbol clock), which is what the performance model consumes.
type Board struct {
	cfg       DeviceConfig
	placement *Placement
	sim       *automata.Simulator

	reconfigs     int
	symbols       int
	reportRecords int
}

// NewBoard returns an unconfigured board.
func NewBoard(cfg DeviceConfig) *Board {
	return &Board{cfg: cfg}
}

// Config returns the board's device configuration.
func (b *Board) Config() DeviceConfig { return b.cfg }

// Configure compiles net onto the board and makes it the active
// configuration, accounting one partial reconfiguration. Precompiled
// placements (the paper assumes board images are compiled offline, §III-C)
// can be loaded with ConfigurePlaced.
func (b *Board) Configure(net *automata.Network) error {
	placement, err := Compile(net, b.cfg)
	if err != nil {
		return err
	}
	return b.ConfigurePlaced(net, placement)
}

// ConfigurePlaced loads a precompiled placement.
func (b *Board) ConfigurePlaced(net *automata.Network, placement *Placement) error {
	sim, err := automata.NewSimulator(net)
	if err != nil {
		return fmt.Errorf("ap: configure: %w", err)
	}
	b.placement = placement
	b.sim = sim
	b.reconfigs++
	return nil
}

// Placement returns the active placement, or nil before Configure.
func (b *Board) Placement() *Placement { return b.placement }

// Stream resets the active configuration and drives the symbol stream
// through it, returning all reports. It panics if the board is not
// configured: streaming without a configuration is a host-programming bug.
func (b *Board) Stream(symbols []byte) []automata.Report {
	if b.sim == nil {
		panic("ap: Stream on unconfigured board")
	}
	b.symbols += len(symbols)
	reports := b.sim.Run(symbols)
	b.reportRecords += len(reports)
	return reports
}

// Reconfigs returns the number of configurations loaded so far.
func (b *Board) Reconfigs() int { return b.reconfigs }

// SymbolsStreamed returns the total number of symbols streamed.
func (b *Board) SymbolsStreamed() int { return b.symbols }

// ReportsEmitted returns the total number of report records produced.
func (b *Board) ReportsEmitted() int { return b.reportRecords }

// ModeledTime returns the accumulated wall-clock estimate of everything the
// board has streamed and loaded so far (see DeviceConfig.ModeledTime).
func (b *Board) ModeledTime() time.Duration {
	return b.cfg.ModeledTime(b.symbols, b.reconfigs)
}
