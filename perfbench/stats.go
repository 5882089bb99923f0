package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// tail returns the q-quantile (0 < q < 1) of samples by the nearest-rank
// rule, and how many samples lie strictly beyond it. The input is not
// modified. An empty sample gives NaN and 0.
func tail(samples []float64, q float64) (value float64, beyond int) {
	if len(samples) == 0 {
		return math.NaN(), 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	value = s[rank]
	i := rank + 1
	for i < len(s) && s[i] == value {
		i++
	}
	return value, len(s) - i
}

// median is tail(samples, 0.5) without the count.
func median(samples []float64) float64 {
	v, _ := tail(samples, 0.5)
	return v
}

// mean returns the arithmetic mean, or 0 for an empty sample.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// ratio divides, giving 0 when the denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// deciles renders the 10th to 90th percentiles, for the report.
func deciles(samples []float64) string {
	var b strings.Builder
	b.WriteString("deciles")
	for q := 1; q <= 9; q++ {
		v, _ := tail(samples, float64(q)/10)
		fmt.Fprintf(&b, " %.4g", v)
	}
	return b.String()
}
