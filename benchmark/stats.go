package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending slice, 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(math.Ceil(p*float64(len(sorted))))-1]
}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median of an unsorted slice: the mean of the middle two when the count
// is even, so that a median of four passes favours neither side.
func median(v []float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summary is one reported value and, where it was also taken once per
// pass or trial, those values, ascending: the spread printed beside it.
type summary struct {
	value  float64
	passes []float64
}

// summarize reports the median of repeated trials.
func summarize(trials []float64) summary {
	return summary{value: median(trials), passes: sorted(trials)}
}
