package main

import "testing"

func TestVerdictRules(t *testing.T) {
	tight := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name         string
		base, change []float64
		better       string
		bound        float64
		want         string
	}{
		{"identical", tight, tight, "lower", 0.1, vUnchanged},
		{"small worsening inside the bound", tight, scale(tight, 1.05), "lower", 0.1, vUnchanged},
		{"worsening past the bound", tight, scale(tight, 1.2), "lower", 0.1, vWorse},
		{"clear gain", tight, scale(tight, 0.8), "lower", 0.1, vBetter},
		{"higher-is-better drop", tight, scale(tight, 0.8), "higher", 0.1, vWorse},
		{"higher-is-better rise", tight, scale(tight, 1.2), "higher", 0.1, vBetter},
		{"noisy base hides a change",
			[]float64{8, 9, 10, 11, 12, 13, 7}, []float64{8.5, 9.5, 10.5, 11.5, 12.5, 13.5, 7.5}, "lower", 0.1, vUnresolved},
		{"noisy but every change run is better, within the spread",
			[]float64{10, 10.4, 13, 13.5, 14}, []float64{9.9, 9.8, 9.7, 9.6, 9.5}, "lower", 0.1, vUnchanged},
		{"gain needs nine tenths of pairs",
			[]float64{10, 10, 10, 10, 10}, []float64{9, 9, 9, 9, 11}, "lower", 0.5, vUnchanged},
		{"ties count for neither", []float64{10, 10, 10}, []float64{10, 10, 10}, "lower", 0, vUnchanged},
		{"zero base, any increase is worse", []float64{0}, []float64{0.05}, "lower", 0, vWorse},
		{"zero base stays zero", []float64{0}, []float64{0}, "lower", 0, vUnchanged},
		{"no runs", nil, tight, "lower", 0.1, vUnresolved},
	} {
		if got := verdict(c.base, c.change, c.better, c.bound); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 4, 6},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
