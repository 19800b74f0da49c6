package trace

import "sort"

// ledgerChunk is the number of samples in one ledger chunk: 4096 float64s
// are 32 KiB, Go's largest small size class, so a chunk wastes no bytes to
// size-class rounding.
const ledgerChunk = 4096

// Ledger is an append-only list of samples (latencies or span durations)
// kept in fixed chunks, as the per-process logs keep their records: a chunk
// is allocated once and never copied, so a full ledger grows by one chunk
// and an index entry, not by re-copying every sample. The zero value is an
// empty ledger.
type Ledger struct {
	chunks []*[ledgerChunk]float64
	n      int
}

// Add appends one sample.
func (l *Ledger) Add(v float64) {
	i := l.n % ledgerChunk
	if i == 0 {
		l.chunks = append(l.chunks, new([ledgerChunk]float64))
	}
	l.chunks[l.n/ledgerChunk][i] = v
	l.n++
}

// Len is the number of samples added.
func (l *Ledger) Len() int { return l.n }

// appendTo appends the samples to dst in the order they were added.
func (l *Ledger) appendTo(dst []float64) []float64 {
	for i, c := range l.chunks {
		dst = append(dst, c[:min(ledgerChunk, l.n-i*ledgerChunk)]...)
	}
	return dst
}

// Digest summarizes one ledger: its sample count, the total summed in
// ascending order, the p50/p95/p99/p999 quantiles (Quantile) and the
// largest sample. An empty ledger digests to all zeros.
type Digest struct {
	Count               int
	Total               float64
	P50, P95, P99, P999 float64
	Max                 float64
}

// Digests digests each ledger in turn. It gathers every ledger into one
// buffer sized to the largest and sorts that, so the ledgers themselves
// are only read: a digest may be taken mid-run and again at the end.
func Digests(ls ...*Ledger) []Digest {
	size := 0
	for _, l := range ls {
		size = max(size, l.n)
	}
	buf := make([]float64, 0, size)
	out := make([]Digest, len(ls))
	for i, l := range ls {
		if l.n == 0 {
			continue
		}
		buf = l.appendTo(buf[:0])
		sort.Float64s(buf)
		d := &out[i]
		d.Count = len(buf)
		for _, v := range buf {
			d.Total += v
		}
		d.P50 = Quantile(buf, 0.50)
		d.P95 = Quantile(buf, 0.95)
		d.P99 = Quantile(buf, 0.99)
		d.P999 = Quantile(buf, 0.999)
		d.Max = buf[len(buf)-1]
	}
	return out
}
