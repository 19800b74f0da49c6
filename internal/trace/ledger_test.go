package trace

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// refDigest digests a flat copy of samples the plain way: sort, sum in
// ascending order, and read the quantiles off the sorted copy.
func refDigest(samples []float64) Digest {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := Digest{Count: len(s)}
	if len(s) == 0 {
		return d
	}
	for _, v := range s {
		d.Total += v
	}
	d.P50, d.P95, d.P99, d.P999 = Quantile(s, 0.50), Quantile(s, 0.95), Quantile(s, 0.99), Quantile(s, 0.999)
	d.Max = s[len(s)-1]
	return d
}

// sameBits reports whether two digests are bitwise equal, field by field.
func sameBits(a, b Digest) bool {
	fa := []float64{a.Total, a.P50, a.P95, a.P99, a.P999, a.Max}
	fb := []float64{b.Total, b.P50, b.P95, b.P99, b.P999, b.Max}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Count == b.Count
}

// Every digest is bitwise equal to sorting, summing and reading quantiles
// off a flat copy of the same samples, at sizes around the chunk edges and
// with duplicates and zeros. All sizes share one Digests call, so the
// gathering buffer is reused by smaller ledgers after larger ones.
func TestDigestsMatchFlatReference(t *testing.T) {
	sizes := []int{0, 1, ledgerChunk - 1, ledgerChunk, ledgerChunk + 1, 5*ledgerChunk + 3, 2}
	rng := rand.New(rand.NewSource(1))
	ls := make([]*Ledger, len(sizes))
	flat := make([][]float64, len(sizes))
	for i, n := range sizes {
		ls[i] = new(Ledger)
		for j := 0; j < n; j++ {
			var v float64
			switch rng.Intn(4) {
			case 0: // zero
			case 1: // a small set of repeated values
				v = float64(rng.Intn(5)) * 1e-3
			default:
				v = rng.ExpFloat64() * 1e-2
			}
			ls[i].Add(v)
			flat[i] = append(flat[i], v)
		}
		if ls[i].Len() != n {
			t.Fatalf("ledger of %d samples reports Len %d", n, ls[i].Len())
		}
	}
	ds := Digests(ls...)
	for i, n := range sizes {
		if want := refDigest(flat[i]); !sameBits(ds[i], want) {
			t.Errorf("%d samples: digest %+v, want %+v", n, ds[i], want)
		}
	}
	// A digest only reads: the ledgers still hold their samples in order.
	for i := range ls {
		got := ls[i].appendTo(nil)
		if fmt.Sprint(got) != fmt.Sprint(flat[i]) {
			t.Fatalf("ledger %d changed after Digests", i)
		}
	}
}

// Once the first chunk exists, n more Adds allocate one chunk per 4096
// samples plus the chunk index's own growth, a logarithmic count.
func TestLedgerAddAllocatesPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 20*ledgerChunk + 17
	var l Ledger
	l.Add(0)
	// AllocsPerRun adds n samples once to warm up and once to measure.
	got := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			l.Add(float64(i))
		}
	})
	chunks := (n + ledgerChunk - 1) / ledgerChunk
	limit := float64(chunks + bits.Len(uint(len(l.chunks))))
	if got > limit {
		t.Errorf("%d Adds allocated %v times, want ≤ %v (%d chunks plus index growth)", n, got, limit, chunks)
	}
}

// BenchmarkLedgerAdd times one Add, chunk allocations amortized in;
// -benchmem prints its allocations per op.
func BenchmarkLedgerAdd(b *testing.B) {
	var l Ledger
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Add(float64(i))
	}
}
