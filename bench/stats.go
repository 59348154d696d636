package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the
// samples at or below it. An empty sample yields 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortInt64(s []int64) []int64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// medianNS sorts the durations in place and returns their median in ns.
func medianNS(s []int64) float64 { return float64(percentile(sortInt64(s), 50)) }

// quartiles returns the first quartile, median and third quartile of values
// the way Python's statistics.quantiles(values, n=4) does (exclusive
// method), which is how the acceptance driver measures spread.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // quartile i of 4, exclusive interpolation
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// numSlices cuts a timed phase into equal slices of time, whose throughputs
// expose a run the host disturbed.
const numSlices = 10

// sliceSpreadPct is the IQR of per-slice throughput over its median, in
// percent. Above disturbedPct the run is marked disturbed — a diagnostic
// that never alters a metric.
func sliceSpreadPct(rates [numSlices]float64) float64 {
	return 100 * spread(rates[:])
}

const disturbedPct = 10
