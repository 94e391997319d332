package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// ladderPerMille lists the percentiles a timing may be reported at, in
// thousandths: p50, p90, p99, p99.9.
var ladderPerMille = []int{500, 900, 990, 999}

// tailPerMille returns the highest ladder percentile that leaves at least
// ten of n planned samples beyond it (p50 when even that is not supported).
func tailPerMille(n int) int {
	best := ladderPerMille[0]
	for _, pm := range ladderPerMille {
		if n*(1000-pm) >= 10*1000 {
			best = pm
		}
	}
	return best
}

// pctName renders a per-mille percentile as a metric suffix: 990 -> "p99".
func pctName(pm int) string {
	if pm%10 == 0 {
		return "p" + strconv.Itoa(pm/10)
	}
	return "p" + strconv.Itoa(pm/10) + "." + strconv.Itoa(pm%10)
}

// percentileMs returns the nearest-rank per-mille percentile of ds in
// milliseconds, or 0 for an empty sample.
func percentileMs(ds []time.Duration, pm int) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(float64(pm) / 1000 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return float64(s[rank-1]) / float64(time.Millisecond)
}

// median returns the median of vs (mean of the middle two for even
// lengths), or 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles of vs with the
// "exclusive" method (Python's statistics.quantiles(vs, n=4) default), the
// spread the benchmark's acceptance is judged by. vs needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(j int) float64 {
		m := j * (n + 1)
		i, rem := m/4, m%4
		switch {
		case i < 1:
			i, rem = 1, 0
		case i > n-1:
			i, rem = n-1, 4
		}
		return s[i-1] + (s[i]-s[i-1])*float64(rem)/4
	}
	return at(1), at(3)
}
