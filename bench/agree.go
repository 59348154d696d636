package main

import (
	"fmt"
	"math"
)

// farFromMedian is how far a single run may lie from its set's median
// before the benchmark counts as too noisy to gate on.
const farFromMedian = 0.10

// runAgree measures the benchmark against itself: two sets of n full
// untraced runs of the same code, interleaved A B B A … so drift lands on
// both, run i of each set on seed+i. Per workload and metric it prints each
// set's median and quartiles and fails when the set medians differ by more
// than the metric's bound, or when any single run lies more than a tenth
// (or the bound, if that is less: modeled_qps must repeat exactly) from its
// set's median.
func runAgree(o options, n int) error {
	o.trace = false
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		run := o
		run.seed = o.seed + uint64(i)
		for _, s := range order {
			for _, sp := range specs {
				res, err := child(run, sp.name)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					k := key{sp.name, name}
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
		}
	}
	failures := 0
	for _, sp := range specs {
		for _, def := range append(append([]metricDef(nil), endToEnd...), ownEndToEnd...) {
			if def.only != "" && def.only != sp.name {
				continue
			}
			k := key{sp.name, def.name}
			var med [2]float64
			far := 0.0
			for s := range sets {
				q1, m, q3 := quartiles(sets[s][k])
				med[s] = m
				fmt.Printf("%s/%s set %c median %.6g quartiles [%.6g, %.6g] %s\n",
					sp.name, def.name, 'A'+s, m, q1, q3, def.unit)
				for _, v := range sets[s][k] {
					if v != m { // also keeps a median of 0 out of the division
						far = math.Max(far, math.Abs((v-m)/m))
					}
				}
			}
			gap := math.Abs(med[1] - med[0])
			if med[0] != 0 {
				gap /= med[0]
			}
			limit := math.Min(farFromMedian, def.bound)
			verdict := "PASS"
			if gap > def.bound || far > limit {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%s/%s %s: set medians differ %.2f%% (bound %.1f%%), farthest run %.2f%% from its median (limit %.1f%%)\n",
				sp.name, def.name, verdict, 100*gap, 100*def.bound, 100*far, 100*limit)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d workload/metric pairs do not repeat within their bounds", failures)
	}
	return nil
}
