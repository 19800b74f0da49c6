package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// refQuantile is an independent R-7 reference implementation: position
// h = q(n-1), linear interpolation between the two bracketing order
// statistics. Kept deliberately naive (floor via math.Floor, no index
// clamping tricks) so it cannot share a bug with Quantile.
func refQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi > n-1 {
		return sorted[n-1]
	}
	return sorted[lo]*(float64(hi)-h) + sorted[hi]*(h-float64(lo))
}

func TestPercentileEdgeCases(t *testing.T) {
	// n = 0: defined as 0.
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil, 0.5) = %v, want 0", got)
	}
	// n = 1: every quantile is the single value.
	one := []float64{7}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got := Quantile(one, q); got != 7 {
			t.Errorf("Quantile([7], %v) = %v, want 7", q, got)
		}
	}
	// n = 2: p50 must be the midpoint — the nearest-rank formula this
	// replaced returned the lower value (biasing p50 low on even counts).
	two := []float64{10, 20}
	if got := Quantile(two, 0.5); got != 15 {
		t.Errorf("Quantile([10 20], 0.5) = %v, want 15", got)
	}
	// ... and p99 of a small set must NOT collapse to the max.
	if got := Quantile(two, 0.99); got >= 20 || got <= 15 {
		t.Errorf("Quantile([10 20], 0.99) = %v, want in (15, 20)", got)
	}
	// Exact-boundary q: 0 is the min, 1 is the max.
	v := []float64{1, 2, 3, 4, 5}
	if got := Quantile(v, 0); got != 1 {
		t.Errorf("Quantile(v, 0) = %v, want 1", got)
	}
	if got := Quantile(v, 1); got != 5 {
		t.Errorf("Quantile(v, 1) = %v, want 5", got)
	}
	// q landing exactly on an order statistic: h = 0.25·4 = 1 → sorted[1].
	if got := Quantile(v, 0.25); got != 2 {
		t.Errorf("Quantile(v, 0.25) = %v, want 2", got)
	}
	// p50 of an odd-count set is the middle value, not an interpolation.
	if got := Quantile(v, 0.5); got != 3 {
		t.Errorf("Quantile(v, 0.5) = %v, want 3", got)
	}
}

// TestPercentileMatchesReference sweeps sizes and quantiles against the
// independent reference implementation on a deterministic value set.
func TestPercentileMatchesReference(t *testing.T) {
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for n := 0; n <= 40; n++ {
		vals := make([]float64, n)
		for i := range vals {
			// A deterministic, non-uniform spread (quadratic spacing).
			vals[i] = float64(i*i) / 7
		}
		sort.Float64s(vals)
		for _, q := range qs {
			got := Quantile(vals, q)
			want := refQuantile(vals, q)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("n=%d q=%v: percentile=%v ref=%v", n, q, got, want)
			}
		}
	}
}

// TestPercentileMonotone: quantiles must be monotone in q and bounded by
// [min, max] of the input.
func TestPercentileMonotone(t *testing.T) {
	vals := []float64{0.5, 1, 1, 2, 3, 5, 8, 13, 21}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.001 {
		got := Quantile(vals, q)
		if got < prev {
			t.Fatalf("percentile not monotone at q=%v: %v < %v", q, got, prev)
		}
		if got < vals[0] || got > vals[len(vals)-1] {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, got, vals[0], vals[len(vals)-1])
		}
		prev = got
	}
}

// TestSummaryGolden locks the summary digest (P999 included) on the
// deterministic two-rank scenario, alongside the exporter golden. Regenerate with:
// go test ./internal/trace -run Golden -update
func TestSummaryGolden(t *testing.T) {
	rec := New()
	runScenario(rec)
	s := rec.Summarize(10)
	js, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := append(js, '\n')
	path := filepath.Join("testdata", "golden_summary.txt")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("summary differs from golden file %s\ngot:  %s\nwant: %s",
			path, firstDiff(got, want), firstDiff(want, got))
	}
}
