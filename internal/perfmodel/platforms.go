// Package perfmodel contains the calibrated analytical performance and
// energy models that regenerate the paper's evaluation tables. The
// functional simulators in this repository establish *correctness*; this
// package reproduces the *numbers*: runtimes from per-platform cost models
// whose few constants are fitted to the published small-dataset measurements
// and then extrapolated (README.md documents the audit), and energy as
// dynamic power times runtime, exactly the paper's methodology (§IV).
package perfmodel

import (
	"time"

	"repro/internal/ap"
)

// Platform is one Table I row plus calibrated model constants.
type Platform struct {
	Name      string
	Type      string
	Cores     int
	ProcessNm int
	ClockMHz  int
	// DynamicPowerW is the load-minus-idle power. The paper measured these
	// with a power meter; the values here are derived from its published
	// (runtime, queries/Joule) pairs, e.g. Xeon WordEmbed-small: 4096 q /
	// (3344 q/J * 23.33 ms) = 52.5 W.
	DynamicPowerW float64
	// pairBase/pairWord model a CPU Hamming scan: cost per candidate pair is
	// pairBase + pairWord per 64-bit code word, in nanoseconds. Fitted to
	// the platform's Table III rows; zero for non-CPU platforms.
	pairBaseNs float64
	pairWordNs float64
	// gpuLaunch/gpuPairNs model a GPU kNN kernel (GPUTime): a fixed cost per
	// batched invocation (kernel launches, transfers, result sort) plus the
	// effective time per query/candidate pair, in nanoseconds (sub-nanosecond
	// on a Titan X). Zero for non-GPU platforms.
	gpuLaunch time.Duration
	gpuPairNs float64
	// streamBits, queryLanes and pipelineDepth describe an FPGA kNN core
	// (FPGACycles): the AXI4-Stream width in bits per cycle, the queries
	// processed in parallel per pass (each lane owns a scratchpad slot, a
	// distance unit and a priority queue), and the fill latency of the
	// distance + insert pipeline. Zero for non-FPGA platforms.
	streamBits, queryLanes, pipelineDepth int
}

// XeonE5 returns the Xeon E5-2620 CPU baseline.
func XeonE5() Platform {
	return Platform{
		Name: "Xeon E5-2620", Type: "CPU", Cores: 6, ProcessNm: 32, ClockMHz: 2000,
		DynamicPowerW: 52.5, pairBaseNs: 2.18, pairWordNs: 3.38,
	}
}

// CortexA15 returns the ARM Cortex A15 CPU baseline.
func CortexA15() Platform {
	return Platform{
		Name: "Cortex A15", Type: "CPU", Cores: 4, ProcessNm: 28, ClockMHz: 2300,
		DynamicPowerW: 8.0, pairBaseNs: 3.8, pairWordNs: 20.9,
	}
}

// JetsonTK1 returns the Tegra Jetson K1 GPU descriptor, its kernel model
// calibrated to Tables III/IV.
func JetsonTK1() Platform {
	return Platform{
		Name: "Jetson TK1", Type: "GPU", Cores: 192, ProcessNm: 28, ClockMHz: 852,
		DynamicPowerW: 1.2, gpuLaunch: 110 * time.Millisecond, gpuPairNs: 3.73,
	}
}

// TitanX returns the Titan X GPU descriptor, its kernel model calibrated to
// Table IV.
func TitanX() Platform {
	return Platform{
		Name: "Titan X", Type: "GPU", Cores: 3072, ProcessNm: 28, ClockMHz: 1075,
		DynamicPowerW: 49.3, gpuLaunch: 15 * time.Millisecond, gpuPairNs: 0.23,
	}
}

// Kintex7 returns the Kintex-7 FPGA descriptor. A 64-bit stream reproduces
// the published runtimes within ~30% across all six (workload, dataset-size)
// cells of Tables III/IV.
func Kintex7() Platform {
	return Platform{
		Name: "Kintex-7", Type: "FPGA", ProcessNm: 28, ClockMHz: 185,
		DynamicPowerW: 3.7, streamBits: 64, queryLanes: 16, pipelineDepth: 8,
	}
}

// APBoard returns the Automata Processor descriptor (Table I: 64 half-cores
// as "cores", 50 nm, 133 MHz).
func APBoard() Platform {
	return Platform{
		Name: "Automata Processor", Type: "AP", Cores: 64, ProcessNm: 50, ClockMHz: 133,
		DynamicPowerW: 18.9,
	}
}

// Platforms returns Table I in paper order.
func Platforms() []Platform {
	return []Platform{XeonE5(), CortexA15(), JetsonTK1(), TitanX(), Kintex7(), APBoard()}
}

// CPUTime models a batched exact Hamming scan on a CPU platform:
// queries*n candidate pairs, each costing pairBase + pairWord*ceil(dim/64).
func CPUTime(p Platform, n, queries, dim int) time.Duration {
	words := float64((dim + 63) / 64)
	pairs := float64(n) * float64(queries)
	ns := pairs * (p.pairBaseNs + p.pairWordNs*words)
	return time.Duration(ns * float64(time.Nanosecond))
}

// GPUTime models a batched exact kNN on a GPU platform: the paper's
// off-the-shelf CUDA kNN kernel modified to use 32-bit XOR + POPCOUNT
// (§IV-C). The binarized kernel is dominated by the fixed launch overhead
// plus a per-pair cost nearly independent of dimensionality ("poor blocking
// of the binarized data": 1-bit-per-dimension vectors make its memory
// accesses too fine grained to reach bandwidth). The model reproduces both
// generations' published numbers within ~25% (README.md). It panics on a
// platform without a GPU model.
func GPUTime(p Platform, n, queries int) time.Duration {
	if p.gpuPairNs <= 0 {
		panic("perfmodel: no GPU model for platform " + p.Name)
	}
	pairs := float64(n) * float64(queries)
	return p.gpuLaunch + time.Duration(pairs*p.gpuPairNs*float64(time.Nanosecond))
}

// FPGACycles is the cycle model of the paper's FPGA baseline (§IV-C): an
// AXI4-Stream fixed-function kNN core with a query scratchpad, an
// XOR/POPCOUNT distance unit and a systolic hardware priority queue per
// lane. Per pass of queryLanes queries every dataset vector streams through
// once at streamBits per cycle, with distance and queue insert pipelined
// behind the stream; loading the pass's queries into the scratchpad costs
// one stream pass of them. It panics on a platform without an FPGA model.
func FPGACycles(p Platform, n, queries, dim int) int64 {
	if p.streamBits <= 0 || p.queryLanes <= 0 {
		panic("perfmodel: no FPGA model for platform " + p.Name)
	}
	vecCycles := ceilDiv(dim, p.streamBits)
	passes := ceilDiv(queries, p.queryLanes)
	return int64(passes * (n*vecCycles + p.pipelineDepth + p.queryLanes*vecCycles))
}

// FPGATime is FPGACycles' wall-clock time at the platform's clock.
func FPGATime(p Platform, n, queries, dim int) time.Duration {
	cycles := FPGACycles(p, n, queries, dim)
	return time.Duration(float64(cycles) / (float64(p.ClockMHz) * 1e6) * float64(time.Second))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// SingleThreadCPUTime scales the (multicore-calibrated) CPU model to one
// core, the Table V baseline ("compared to single threaded CPU baselines").
func SingleThreadCPUTime(p Platform, n, queries, dim int) time.Duration {
	return time.Duration(int64(CPUTime(p, n, queries, dim)) * int64(p.Cores))
}

// QueriesPerJoule converts a runtime into the paper's energy-efficiency
// metric using the platform's dynamic power.
func QueriesPerJoule(p Platform, queries int, t time.Duration) float64 {
	joules := p.DynamicPowerW * t.Seconds()
	if joules <= 0 {
		return 0
	}
	return float64(queries) / joules
}

// APGen1 and APGen2 re-export the device configurations for table builders.
func APGen1() ap.DeviceConfig { return ap.Gen1() }

// APGen2 returns the projected next-generation device.
func APGen2() ap.DeviceConfig { return ap.Gen2() }
