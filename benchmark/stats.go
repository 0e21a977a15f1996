package main

import (
	"math"
	"sort"
)

// Direction says which way a metric improves.
type direction string

const (
	lower  direction = "lower"
	higher direction = "higher"
)

// best returns the most favourable of vs: the minimum of a
// lower-is-better metric, the maximum of a higher-is-better one.
func best(vs []float64, d direction) float64 {
	b := vs[0]
	for _, v := range vs[1:] {
		if (d == lower && v < b) || (d == higher && v > b) {
			b = v
		}
	}
	return b
}

// percentile returns the p-th percentile (0 <= p <= 100) of vs by linear
// interpolation between the two nearest order statistics, the same rule
// as Python's statistics.quantiles(method="inclusive").
func percentile(vs []float64, p float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// spread is the full range of vs as a share of its median: the figure
// printed beside every reported value so a reader sees how far single
// trials of the same command sit apart.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (best(vs, higher) - best(vs, lower)) / m
}
