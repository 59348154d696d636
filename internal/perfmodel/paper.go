package perfmodel

// Published numbers from the paper's evaluation section, kept verbatim so
// every harness prints paper-vs-reproduced comparisons. Units follow the
// paper: Table III in milliseconds, Table IV in seconds, energy in
// queries/Joule.

// PaperTable3Runtime maps workload -> platform -> milliseconds (small
// datasets: n=1024 for WordEmbed/SIFT, 512 for TagSpace).
var PaperTable3Runtime = map[string]map[string]float64{
	"WordEmbed": {
		"Xeon E5-2620": 23.33, "Cortex A15": 103.63, "Jetson TK1": 125.80,
		"Kintex-7": 1.89, "AP Gen 1": 1.97,
	},
	"SIFT": {
		"Xeon E5-2620": 37.50, "Cortex A15": 191.44, "Jetson TK1": 155.94,
		"Kintex-7": 3.78, "AP Gen 1": 3.94,
	},
	"TagSpace": {
		"Xeon E5-2620": 33.97, "Cortex A15": 185.34, "Jetson TK1": 160.15,
		"Kintex-7": 4.33, "AP Gen 1": 7.88,
	},
}

// PaperTable3Energy maps workload -> platform -> queries/Joule.
var PaperTable3Energy = map[string]map[string]float64{
	"WordEmbed": {
		"Xeon E5-2620": 3344, "Cortex A15": 4941, "Jetson TK1": 27133,
		"Kintex-7": 579214, "AP Gen 1": 110445,
	},
	"SIFT": {
		"Xeon E5-2620": 2081, "Cortex A15": 2674, "Jetson TK1": 21889,
		"Kintex-7": 289607, "AP Gen 1": 44603,
	},
	"TagSpace": {
		"Xeon E5-2620": 2297, "Cortex A15": 2762, "Jetson TK1": 21314,
		"Kintex-7": 253406, "AP Gen 1": 22301,
	},
}

// PaperTable4Runtime maps workload -> platform -> seconds (n = 2^20).
var PaperTable4Runtime = map[string]map[string]float64{
	"WordEmbed": {
		"Xeon E5-2620": 19.89, "Cortex A15": 109.06, "Jetson TK1": 16.09,
		"Titan X": 0.99, "Kintex-7": 1.85,
		"AP Gen 1": 48.10, "AP Gen 2": 2.48, "AP Opt+Ext": 0.039,
	},
	"SIFT": {
		"Xeon E5-2620": 33.18, "Cortex A15": 199.5, "Jetson TK1": 16.73,
		"Titan X": 1.02, "Kintex-7": 3.69,
		"AP Gen 1": 50.11, "AP Gen 2": 4.50, "AP Opt+Ext": 0.062,
	},
	"TagSpace": {
		"Xeon E5-2620": 60.12, "Cortex A15": 382.82, "Jetson TK1": 16.41,
		"Titan X": 1.03, "Kintex-7": 7.38,
		"AP Gen 1": 108.31, "AP Gen 2": 17.07, "AP Opt+Ext": 0.23,
	},
}

// PaperTable4Energy maps workload -> platform -> queries/Joule.
var PaperTable4Energy = map[string]map[string]float64{
	"WordEmbed": {
		"Xeon E5-2620": 3.92, "Cortex A15": 4.69, "Jetson TK1": 212.14,
		"Titan X": 83.84, "Kintex-7": 593.89,
		"AP Gen 1": 4.53, "AP Gen 2": 87.81, "AP Opt+Ext": 1737.92,
	},
	"SIFT": {
		"Xeon E5-2620": 2.35, "Cortex A15": 2.57, "Jetson TK1": 204.02,
		"Titan X": 81.94, "Kintex-7": 296.95,
		"AP Gen 1": 4.34, "AP Gen 2": 48.40, "AP Opt+Ext": 1091.86,
	},
	"TagSpace": {
		"Xeon E5-2620": 1.30, "Cortex A15": 1.34, "Jetson TK1": 208.00,
		"Titan X": 81.05, "Kintex-7": 148.47,
		"AP Gen 1": 1.62, "AP Gen 2": 10.20, "AP Opt+Ext": 236.30,
	},
}

// PaperTable5 maps indexing structure -> [Gen1 speedup, Gen2 speedup] on
// large kNN-TagSpace versus a single-threaded ARM baseline.
var PaperTable5 = map[string][2]float64{
	"Linear (No Index)": {16, 91},
	"KD-Tree":           {0.89, 106},
	"K-Means":           {0.88, 120},
	"MPLSH":             {0.62, 3.5},
}

// PaperTable6 maps workload -> k' -> percent incorrect over 100 randomized
// runs (p=16, n=1024). k' >= 4 is 0 for every workload.
var PaperTable6 = map[string]map[int]float64{
	"WordEmbed": {1: 100, 2: 1, 3: 0, 4: 0},
	"SIFT":      {1: 100, 2: 1, 3: 0, 4: 0},
	"TagSpace":  {1: 100, 2: 72, 3: 5, 4: 0},
}

// PaperTable7 maps workload -> decomposition factor -> resource savings.
var PaperTable7 = map[string]map[int]float64{
	"WordEmbed": {1: 1, 2: 1.98, 4: 3.86, 8: 7.38, 16: 13.56, 32: 23.34},
	"SIFT":      {1: 1, 2: 1.99, 4: 3.93, 8: 7.67, 16: 14.68, 32: 27.00},
	"TagSpace":  {1: 1, 2: 1.99, 4: 3.96, 8: 7.83, 16: 15.31, 32: 29.26},
}

// PaperTable8 maps workload -> compounded gain rows.
var PaperTable8 = map[string]OptExtGains{
	"WordEmbed": {TechScaling: 3.19, VectorPacking: 2.93, STEDecomposition: 3.86, CounterIncrement: 1.75},
	"SIFT":      {TechScaling: 3.19, VectorPacking: 3.28, STEDecomposition: 3.93, CounterIncrement: 1.75},
	"TagSpace":  {TechScaling: 3.19, VectorPacking: 3.31, STEDecomposition: 3.96, CounterIncrement: 1.75},
}

// PaperTable8Total maps workload -> total compounded improvement.
var PaperTable8Total = map[string]float64{
	"WordEmbed": 63.14, "SIFT": 71.96, "TagSpace": 73.17,
}

// PaperUtilization maps workload -> §V-A board utilization fraction.
var PaperUtilization = map[string]float64{
	"WordEmbed": 0.417, "SIFT": 0.909, "TagSpace": 0.786,
}

// PaperBandwidthGbps maps workload -> §VI-C sustained report bandwidth.
var PaperBandwidthGbps = map[string]float64{
	"WordEmbed": 36.2, "SIFT": 18.1, "TagSpace": 9.0,
}
