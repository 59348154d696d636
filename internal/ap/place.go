package ap

import (
	"fmt"
	"sort"

	"repro/internal/automata"
)

// ComponentUse is the resource demand of one connected component (one NFA).
type ComponentUse struct {
	STEs      int
	Counters  int
	Booleans  int
	Reporting int
	// HalfCore is the half-core index the placer assigned, filled by Compile.
	HalfCore int
}

// Blocks returns the rectangular block area the component occupies: the AP
// compiler allocates whole blocks, so the footprint is bounded by the
// scarcest per-block resource.
func (c ComponentUse) Blocks() int {
	b := ceilDiv(c.STEs, STEsPerBlock)
	if v := ceilDiv(c.Counters, CountersPerBlock); v > b {
		b = v
	}
	if v := ceilDiv(c.Booleans, BooleansPerBlock); v > b {
		b = v
	}
	if v := ceilDiv(c.Reporting, ReportingPerBlock); v > b {
		b = v
	}
	return b
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Placement is the result of compiling a network onto a device: the
// per-component assignment plus the utilization figures the paper reports in
// §V-A from apadmin compilation reports.
type Placement struct {
	Device     DeviceConfig
	Components []ComponentUse

	// Totals across the design.
	STEs      int
	Counters  int
	Booleans  int
	Reporting int
	// BlocksUsed is the total rectangular block area.
	BlocksUsed int
	// HalfCoresUsed is the number of half-cores with at least one component.
	HalfCoresUsed int
	// RoutingPressure counts fan-in/fan-out budget violations weighted by
	// excess degree; high pressure predicts the partially-routed compilations
	// the paper observed for vector packing (§VI-A).
	RoutingPressure int
}

// Utilization returns the fraction of the board's rectangular block area the
// design occupies, the §V-A metric (0.417, 0.909, 0.786 for the three paper
// workloads).
func (p *Placement) Utilization() float64 {
	return float64(p.BlocksUsed) / float64(p.Device.TotalBlocks())
}

// Routable reports whether the design fits the routing budget. The heuristic
// deems a design routable when no element exceeds twice the fan-out budget
// and average pressure per used block stays below one excess edge.
func (p *Placement) Routable() bool {
	if p.BlocksUsed == 0 {
		return true
	}
	return float64(p.RoutingPressure)/float64(p.BlocksUsed) < 1.0
}

// Compile maps net onto a device, assigning each connected component (NFA)
// to a half-core with first-fit-decreasing bin packing. It fails if any
// single component exceeds a half-core (NFAs cannot span half-cores, §II-B)
// or if the design does not fit on the board.
func Compile(net *automata.Network, cfg DeviceConfig) (*Placement, error) {
	comps := net.Components()
	p := &Placement{Device: cfg}
	p.Components = make([]ComponentUse, len(comps))
	for i, elems := range comps {
		use := ComponentUse{HalfCore: -1}
		for _, id := range elems {
			switch net.KindOf(id) {
			case automata.KindSTE:
				use.STEs++
			case automata.KindCounter:
				use.Counters++
			case automata.KindGate:
				use.Booleans++
			}
			if rep, _ := net.IsReporting(id); rep {
				use.Reporting++
			}
			if fi := net.FanIn(id); fi > cfg.MaxFanIn {
				p.RoutingPressure += fi - cfg.MaxFanIn
			}
			if fo := len(net.Edges(id)); fo > cfg.MaxFanOut {
				p.RoutingPressure += fo - cfg.MaxFanOut
			}
		}
		if use.STEs > STEsPerHalfCore {
			return nil, fmt.Errorf("ap: component %d needs %d STEs; an NFA cannot exceed one half-core (%d)",
				i, use.STEs, STEsPerHalfCore)
		}
		if use.Counters > BlocksPerHalfCore*CountersPerBlock {
			return nil, fmt.Errorf("ap: component %d needs %d counters; half-core capacity is %d",
				i, use.Counters, BlocksPerHalfCore*CountersPerBlock)
		}
		p.Components[i] = use
		p.STEs += use.STEs
		p.Counters += use.Counters
		p.Booleans += use.Booleans
		p.Reporting += use.Reporting
	}

	// First-fit-decreasing by block footprint into half-cores.
	areaFactor := cfg.CompilerAreaFactor
	if areaFactor < 1 {
		areaFactor = 1
	}
	footprint := func(ci int) int {
		c := p.Components[ci]
		scaled := c
		scaled.STEs = int(float64(c.STEs) * areaFactor)
		return scaled.Blocks()
	}
	order := make([]int, len(p.Components))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return footprint(order[a]) > footprint(order[b])
	})
	type hcFree struct{ blocks int }
	free := make([]hcFree, cfg.HalfCores())
	for i := range free {
		free[i].blocks = BlocksPerHalfCore
	}
	for _, ci := range order {
		need := footprint(ci)
		placed := false
		for hc := range free {
			if free[hc].blocks >= need {
				free[hc].blocks -= need
				p.Components[ci].HalfCore = hc
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("ap: design does not fit: component of %d blocks has no half-core with space (board %s)",
				need, cfg.Name)
		}
		p.BlocksUsed += need
	}
	used := map[int]bool{}
	for i := range p.Components {
		used[p.Components[i].HalfCore] = true
	}
	p.HalfCoresUsed = len(used)
	return p, nil
}

// Report renders the apadmin-style compilation report.
func (p *Placement) Report() string {
	return fmt.Sprintf(
		"device: %s\ncomponents (NFAs): %d\nSTEs: %d / %d\ncounters: %d / %d\nbooleans: %d / %d\nreporting: %d / %d\nblocks: %d / %d (%.1f%% utilization)\nhalf-cores used: %d / %d\nrouting pressure: %d (routable: %v)\n",
		p.Device, len(p.Components),
		p.STEs, p.Device.TotalSTEs(),
		p.Counters, p.Device.TotalCounters(),
		p.Booleans, p.Device.TotalBooleans(),
		p.Reporting, p.Device.TotalReporting(),
		p.BlocksUsed, p.Device.TotalBlocks(), 100*p.Utilization(),
		p.HalfCoresUsed, p.Device.HalfCores(),
		p.RoutingPressure, p.Routable(),
	)
}
