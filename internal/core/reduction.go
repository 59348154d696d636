package core

import (
	"fmt"
	"sort"

	"repro/internal/automata"
	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/stats"
)

// ReductionGroup is the §VI-C statistical-activation-reduction automaton
// (Fig. 7): p Hamming macros share a Local Neighbor Counter (LNC) with
// threshold k'. The LNC counts reporting activations within the group and,
// once k' reporting cycles have occurred, resets every inverted-Hamming-
// distance counter in the group, suppressing the remaining (farther)
// activations and cutting report bandwidth by ~p/k'.
type ReductionGroup struct {
	Macros []*Macro
	LNC    automata.ElementID
}

// BuildReductionGroup appends p macros for the vectors of ds plus the local
// neighbor counter with threshold kPrime. Report IDs are baseID + index.
func BuildReductionGroup(net *automata.Network, ds *bitvec.Dataset, l Layout, kPrime int, baseID int32) *ReductionGroup {
	if kPrime <= 0 {
		panic(fmt.Sprintf("core: kPrime must be positive, got %d", kPrime))
	}
	if ds.Len() == 0 {
		panic("core: BuildReductionGroup on empty dataset")
	}
	g := &ReductionGroup{}
	for i := 0; i < ds.Len(); i++ {
		g.Macros = append(g.Macros, BuildMacro(net, ds.At(i), l, baseID+int32(i)))
	}
	g.LNC = net.AddCounter(kPrime, automata.CounterPulse,
		automata.WithName(fmt.Sprintf("lnc.%d", baseID)))
	for _, m := range g.Macros {
		// Reporting activations drive the LNC; simultaneous reports within a
		// cycle merge into one increment (counters increment by at most one,
		// §II-B), so the LNC counts distinct reporting cycles.
		net.ConnectCount(m.Report, g.LNC)
		// The LNC pulse resets every IHD counter in the group.
		net.ConnectReset(g.LNC, m.Counter)
	}
	// The shared end-of-query reset: any macro's EOF state re-arms the LNC
	// for the next query window.
	net.ConnectReset(g.Macros[0].EOF, g.LNC)
	return g
}

// SuppressionMode selects how the host-level model mirrors the hardware.
type SuppressionMode int

const (
	// SuppressFaithful matches the cycle-accurate automata of
	// BuildReductionGroup. The LNC observes reporting states one cycle late
	// and its reset lands one cycle later still, so pulses up to two CYCLES
	// after the k'-th distinct reporting cycle escape. In distance terms:
	// with h_(k') the k'-th largest distinct inverted Hamming distance of
	// the group, every vector with ihd >= h_(k') - 2 is delivered. Property
	// tests validate this model against the automata.
	SuppressFaithful SuppressionMode = iota
	// SuppressStrict is the paper's Table VI accounting: each group
	// contributes only its top k'-1 distinct distance values (k'=1 delivers
	// nothing, which is how the paper's 100%-incorrect row arises). See
	// README.md for the discussion of the discrepancy.
	SuppressStrict
)

// SuppressGroup returns, for the inverted Hamming distances of one group's
// vectors, which vectors' reports are delivered to the host under the given
// mode.
func SuppressGroup(ihds []int, kPrime int, mode SuppressionMode) []bool {
	out := make([]bool, len(ihds))
	distinct := distinctDescending(ihds)
	deliverAll := func() []bool {
		for i := range out {
			out[i] = true
		}
		return out
	}
	var cutoff int
	switch mode {
	case SuppressFaithful:
		// The LNC needs k' distinct reporting cycles to fire at all.
		if len(distinct) <= kPrime {
			return deliverAll()
		}
		cutoff = distinct[kPrime-1] - 2
	case SuppressStrict:
		if kPrime-1 >= len(distinct) {
			return deliverAll()
		}
		if kPrime-1 <= 0 {
			return out
		}
		cutoff = distinct[kPrime-2]
	default:
		panic(fmt.Sprintf("core: unknown suppression mode %d", mode))
	}
	for i, h := range ihds {
		out[i] = h >= cutoff
	}
	return out
}

func distinctDescending(ihds []int) []int {
	seen := map[int]bool{}
	var vals []int
	for _, h := range ihds {
		if !seen[h] {
			seen[h] = true
			vals = append(vals, h)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(vals)))
	return vals
}

// ReductionExperiment is one Table VI configuration.
type ReductionExperiment struct {
	Dim    int
	N      int // dataset size (paper: 1024)
	P      int // group size (paper: 16)
	K      int // global neighbors wanted
	KPrime int // per-group suppression threshold
	Runs   int // randomized repetitions (paper: 100)
	Mode   SuppressionMode
}

// ReductionResult aggregates a Monte Carlo run.
type ReductionResult struct {
	Incorrect        int
	DeliveredPerRun  float64 // average reports delivered per query
	BandwidthFactor  float64 // p*groups / delivered — the data reduction
	IncorrectPercent float64
}

// RunReduction executes the paper's Table VI methodology: "we randomly
// generate dataset and query vectors, partition the dataset vectors, execute
// local kNN, and perform global top-k sort to determine if exact kNN results
// are computed", repeated Runs times.
func RunReduction(exp ReductionExperiment, rng *stats.RNG) ReductionResult {
	if exp.N%exp.P != 0 {
		panic(fmt.Sprintf("core: dataset size %d not divisible by group size %d", exp.N, exp.P))
	}
	var res ReductionResult
	totalDelivered := 0
	for run := 0; run < exp.Runs; run++ {
		ds := bitvec.RandomDataset(rng, exp.N, exp.Dim)
		q := bitvec.Random(rng, exp.Dim)
		exact := knn.Linear(ds, q, exp.K)
		var delivered []knn.Neighbor
		for lo := 0; lo < exp.N; lo += exp.P {
			ihds := make([]int, exp.P)
			for i := range ihds {
				ihds[i] = exp.Dim - ds.Hamming(lo+i, q)
			}
			keep := SuppressGroup(ihds, exp.KPrime, exp.Mode)
			for i, k := range keep {
				if k {
					delivered = append(delivered, knn.Neighbor{ID: lo + i, Dist: exp.Dim - ihds[i]})
				}
			}
		}
		totalDelivered += len(delivered)
		knn.SortNeighbors(delivered)
		got := TopK(delivered, exp.K)
		if !neighborsEqual(got, exact) {
			res.Incorrect++
		}
	}
	res.DeliveredPerRun = float64(totalDelivered) / float64(exp.Runs)
	if res.DeliveredPerRun > 0 {
		res.BandwidthFactor = float64(exp.N) / res.DeliveredPerRun
	}
	res.IncorrectPercent = 100 * float64(res.Incorrect) / float64(exp.Runs)
	return res
}

func neighborsEqual(a, b []knn.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
