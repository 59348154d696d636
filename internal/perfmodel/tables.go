package perfmodel

import (
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workload"
)

// Cell is one (platform, workload) model evaluation.
type Cell struct {
	Workload string
	Platform string
	Runtime  time.Duration
	Energy   float64 // queries per Joule
}

// modelRuntime evaluates the runtime model for one platform name.
func modelRuntime(platform string, n, queries, dim int) time.Duration {
	switch platform {
	case "Xeon E5-2620":
		return CPUTime(XeonE5(), n, queries, dim)
	case "Cortex A15":
		return CPUTime(CortexA15(), n, queries, dim)
	case "Jetson TK1":
		return GPUTime(JetsonTK1(), n, queries)
	case "Titan X":
		return GPUTime(TitanX(), n, queries)
	case "Kintex-7":
		return FPGATime(Kintex7(), n, queries, dim)
	case "AP Gen 1":
		return APTime(ap.Gen1(), n, queries, dim)
	case "AP Gen 2":
		return APTime(ap.Gen2(), n, queries, dim)
	case "AP Opt+Ext":
		return APOptExtTime(n, queries, dim)
	default:
		panic("perfmodel: unknown platform " + platform)
	}
}

func platformOf(name string) Platform {
	switch name {
	case "Xeon E5-2620":
		return XeonE5()
	case "Cortex A15":
		return CortexA15()
	case "Jetson TK1":
		return JetsonTK1()
	case "Titan X":
		return TitanX()
	case "Kintex-7":
		return Kintex7()
	case "AP Gen 1", "AP Gen 2", "AP Opt+Ext":
		return APBoard()
	default:
		panic("perfmodel: unknown platform " + name)
	}
}

// Table3Platforms lists the small-dataset columns in paper order.
var Table3Platforms = []string{"Xeon E5-2620", "Cortex A15", "Jetson TK1", "Kintex-7", "AP Gen 1"}

// Table4Platforms lists the large-dataset columns in paper order.
var Table4Platforms = []string{
	"Xeon E5-2620", "Cortex A15", "Jetson TK1", "Titan X", "Kintex-7",
	"AP Gen 1", "AP Gen 2", "AP Opt+Ext",
}

// Table3 evaluates the small-dataset models for every cell.
func Table3() []Cell {
	return evalTable(Table3Platforms, true)
}

// Table4 evaluates the large-dataset models for every cell.
func Table4() []Cell {
	return evalTable(Table4Platforms, false)
}

func evalTable(platforms []string, small bool) []Cell {
	var out []Cell
	for _, w := range workload.All() {
		n := w.LargeN
		if small {
			n = w.SmallN
		}
		for _, p := range platforms {
			rt := modelRuntime(p, n, w.Queries, w.Dim)
			plat := platformOf(p)
			if p == "AP Opt+Ext" {
				// §VII-D: "the additional compute density from technology
				// scaling incurs power overheads so we expect energy
				// efficiency to only improve by up to 23x" — the denser
				// 28 nm fabric burns proportionally more power.
				plat.DynamicPowerW *= core.TechnologyScaling(28)
			}
			out = append(out, Cell{
				Workload: w.Name,
				Platform: p,
				Runtime:  rt,
				Energy:   QueriesPerJoule(plat, w.Queries, rt),
			})
		}
	}
	return out
}

// CompareTable3 builds the paper-vs-model comparison for Table III runtimes
// (milliseconds) and energies (queries/Joule).
func CompareTable3() (runtime, energy report.ComparisonSet) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return compareRuntimeEnergy("Table III: small-dataset", Table3(), PaperTable3Runtime, PaperTable3Energy, "ms", ms)
}

// CompareTable4 builds the paper-vs-model comparison for Table IV runtimes
// (seconds) and energies.
func CompareTable4() (runtime, energy report.ComparisonSet) {
	return compareRuntimeEnergy("Table IV: large-dataset", Table4(), PaperTable4Runtime, PaperTable4Energy, "s", time.Duration.Seconds)
}

// compareRuntimeEnergy sets a table's modeled cells against the paper's
// runtimes, reported in unit as in(runtime), and energies.
func compareRuntimeEnergy(table string, cells []Cell, paperRuntime, paperEnergy map[string]map[string]float64,
	unit string, in func(time.Duration) float64) (runtime, energy report.ComparisonSet) {
	runtime.Name = table + " runtime (" + unit + ")"
	energy.Name = table + " energy (queries/Joule)"
	for _, c := range cells {
		label := c.Workload + " / " + c.Platform
		runtime.Add(label, paperRuntime[c.Workload][c.Platform], in(c.Runtime), unit)
		energy.Add(label, paperEnergy[c.Workload][c.Platform], c.Energy, "q/J")
	}
	return runtime, energy
}

// Table5Structures lists the Table V rows in paper order.
var Table5Structures = []string{"Linear (No Index)", "KD-Tree", "K-Means", "MPLSH"}

// CompareTable5 builds the paper-vs-model comparison for the indexing
// speedups on large kNN-TagSpace.
func CompareTable5() report.ComparisonSet {
	var cs report.ComparisonSet
	cs.Name = "Table V: indexing speedups on kNN-TagSpace (vs single-thread ARM)"
	w := workload.TagSpace()
	models := IndexingModels()
	for _, name := range Table5Structures {
		m := models[name]
		gen1 := IndexingSpeedup(ap.Gen1(), m, w.LargeN, w.Queries, w.Dim)
		gen2 := IndexingSpeedup(ap.Gen2(), m, w.LargeN, w.Queries, w.Dim)
		cs.Add(name+" / Gen 1", PaperTable5[name][0], gen1, "x")
		cs.Add(name+" / Gen 2", PaperTable5[name][1], gen2, "x")
	}
	return cs
}

// CompareTable7 builds the STE-decomposition comparison from analyses of the
// actual generated macros.
func CompareTable7() report.ComparisonSet {
	var cs report.ComparisonSet
	cs.Name = "Table VII: STE decomposition resource savings"
	for _, w := range workload.All() {
		rep := macroDecomposition(w.Dim)
		for _, x := range []int{1, 2, 4, 8, 16, 32} {
			cs.Add(w.Name+" / x="+itoa(x), PaperTable7[w.Name][x], rep.Savings(x), "x")
		}
	}
	return cs
}

// CompareTable8 builds the compounded-gain comparison.
func CompareTable8() report.ComparisonSet {
	var cs report.ComparisonSet
	cs.Name = "Table VIII: compounded optimization gains"
	for _, w := range workload.All() {
		g := ComputeOptExtGains(w.Dim)
		p := PaperTable8[w.Name]
		cs.Add(w.Name+" / tech scaling", p.TechScaling, g.TechScaling, "x")
		cs.Add(w.Name+" / vector packing", p.VectorPacking, g.VectorPacking, "x")
		cs.Add(w.Name+" / STE decomposition", p.STEDecomposition, g.STEDecomposition, "x")
		cs.Add(w.Name+" / counter increment", p.CounterIncrement, g.CounterIncrement, "x")
		cs.Add(w.Name+" / total", PaperTable8Total[w.Name], g.Total(), "x")
	}
	return cs
}

// CompareBandwidth builds the §VI-C report-bandwidth comparison.
func CompareBandwidth() report.ComparisonSet {
	var cs report.ComparisonSet
	cs.Name = "§VI-C: sustained report bandwidth (Gbps)"
	for _, w := range workload.All() {
		cs.Add(w.Name, PaperBandwidthGbps[w.Name], ReportBandwidthGbps(w.SmallN, w.Dim), "Gbps")
	}
	return cs
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
