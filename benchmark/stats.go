package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of vs (mean of the two middle values for
// an even count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vs, n=4) (the default "exclusive" method) does — the
// rule the benchmark contract measures spreads with. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of vs as a share of its median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}

// tailPermille are the candidates of the reporting rule — the median, p90,
// p99 and p99.9 — ascending, in thousandths so the rule is exact.
var tailPermille = []int{500, 900, 990, 999}

// tailPercentile returns the highest candidate percentile that still has at
// least ten of n samples beyond it; 50 when even the median has fewer.
func tailPercentile(n int) float64 {
	best := tailPermille[0]
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return float64(best) / 10
}

// percentile returns the p-th percentile (nearest rank) of an ascending
// slice; 0 for an empty one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9)) // 99.9 % of 1000 is 999, not 999.0000000001
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortDurations(ds []time.Duration) []time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

// ms and us render a duration in the unit a metric is reported in.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
