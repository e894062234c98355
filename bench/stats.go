package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middle values for an
// even count). It returns 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vs, or 0 for an empty slice.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailCandidates are the percentiles a tail figure may be reported at,
// lowest first, as the share of samples beyond each, per thousand (so the
// support test is integer arithmetic).
var tailCandidates = []struct {
	p      float64
	beyond int
}{{90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// supportedTail returns the highest candidate percentile that has at
// least ten of the n samples beyond it, or 0 when even p90 is not
// supported (n < 100): a tail read off fewer samples is noise.
func supportedTail(n int) float64 {
	best := 0.0
	for _, c := range tailCandidates {
		if n*c.beyond >= 10*1000 {
			best = c.p
		}
	}
	return best
}

// spread returns the interquartile range of vs as a share of its median,
// with the quartiles Python's statistics.quantiles(vs, n=4) gives (the
// exclusive method, extrapolating at the ends), which is what the
// benchmark driver computes. Fewer than two values have no spread.
func spread(vs []float64) float64 {
	ld := len(vs)
	med := median(vs)
	if ld < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}
