package main

import (
	"math"
	"sort"
)

// summary is one metric over a set of runs.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
}

func summarize(unit string, values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Unit: unit, Values: values, Median: med, Q1: q1, Q3: q3, N: len(values)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles returns the first quartile, median and third quartile by the
// "exclusive" method of Python's statistics.quantiles(values, n=4), so the
// spreads printed here match the ones an outside check computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	switch len(values) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return values[0], values[0], values[0]
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(ld-1, j))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median of values (NaN when empty).
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
