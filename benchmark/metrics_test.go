package main

import (
	"math"
	"testing"
)

func TestEndToEndScalesHostTimesByCalibration(t *testing.T) {
	// The host ran the calibration kernel at half the reference speed
	// before the first round and at the reference speed before the second.
	wr := &workloadRuns{
		Setup: []runRecord{
			{CalS: 2 * calRefS, SetupS: 0.020},
			{CalS: 2 * calRefS, SetupS: 0.020},
			{CalS: calRefS, SetupS: 0.010},
			{CalS: calRefS, SetupS: 0.010},
		},
		Measured: []runRecord{
			{CalS: 2 * calRefS, SetupS: 0.020, WallS: 8, Ops: 800, PeakRSSMB: 50, AllocMB: 100},
			{CalS: calRefS, SetupS: 0.010, WallS: 4, Ops: 800, PeakRSSMB: 50, AllocMB: 100},
			// A failed run's times are left out.
			{CalS: calRefS, WallS: 1, Ops: 800, Err: "child measure: killed"},
		},
	}
	e2e := wr.endToEnd()
	for name, want := range map[string]float64{
		"wall_s":        4,   // 8 s at half speed, 4 s at full speed
		"sim_ops_per_s": 200, // 800 ops in 4 reference seconds
		"setup_s":       0.010,
		"peak_rss_mb":   50,
		"alloc_mb":      100,
	} {
		s := e2e[name]
		if math.Abs(s.Median-want) > 1e-9*want || s.Q1 != s.Q3 {
			t.Errorf("%s: median %v [%v, %v], want %v throughout", name, s.Median, s.Q1, s.Q3, want)
		}
	}
	if n := e2e["wall_s"].N; n != 2 {
		t.Errorf("wall_s over %d runs, want 2", n)
	}
	if got := wr.speed(); got != 0.75 {
		t.Errorf("median scale %v, want 0.75", got)
	}
	if got := (&runRecord{WallS: 3}).scale(); got != 1 {
		t.Errorf("uncalibrated run scaled by %v, want 1", got)
	}
}
