package trace

// Compact recording summaries: per-category span counts and virtual-time
// duration percentiles, per-resource busy fractions, and the final and peak
// value of every counter series — the at-a-glance block univistor-sim
// embeds in its JSON output.

import (
	"slices"
	"sort"
)

// CategorySummary aggregates the spans of one category.
type CategorySummary struct {
	Category string `json:"category"`
	// Count is the number of spans (instants are tallied separately).
	Count int `json:"count"`
	// TotalSeconds is the summed span duration in virtual seconds.
	TotalSeconds float64 `json:"total_seconds"`
	// P50/P95/P99/P999 are span-duration quantiles in virtual seconds,
	// linearly interpolated between order statistics.
	P50  float64 `json:"p50_seconds"`
	P95  float64 `json:"p95_seconds"`
	P99  float64 `json:"p99_seconds"`
	P999 float64 `json:"p999_seconds"`
	// MaxSeconds is the longest span.
	MaxSeconds float64 `json:"max_seconds"`
}

// ResourceSummary aggregates one resource's utilization timeline.
type ResourceSummary struct {
	Name string `json:"name"`
	// CapacityBps is the resource's capacity in bytes/s.
	CapacityBps float64 `json:"capacity_bytes_per_sec"`
	// BusyFraction is the fraction of the recording during which the
	// resource had a nonzero allocation.
	BusyFraction float64 `json:"busy_fraction"`
	// MeanUtilization is the time-weighted mean of rate/capacity over the
	// recording.
	MeanUtilization float64 `json:"mean_utilization"`
	// Samples is the number of rate-change samples recorded.
	Samples int `json:"samples"`
}

// Summary is the compact digest of a recording.
type Summary struct {
	// VirtualSeconds is the virtual-time extent of the recording.
	VirtualSeconds float64 `json:"virtual_seconds"`
	// Spans aggregates span events per category, sorted by category.
	Spans []CategorySummary `json:"spans"`
	// Resources aggregates the busiest resource timelines, sorted by
	// descending busy fraction (name breaks ties).
	Resources []ResourceSummary `json:"resources"`
	// Instants is the number of instant events.
	Instants int `json:"instants"`
	// Flows is the number of fluid transfers recorded.
	Flows int `json:"flows"`
	// Counters digests every counter series, in registration order.
	Counters []CounterSummary `json:"counters,omitempty"`
}

// CounterSummary digests one counter series.
type CounterSummary struct {
	Name string `json:"name"`
	// Samples is the number of points on the series.
	Samples int `json:"samples"`
	// Final and Peak are the last and the largest recorded value.
	Final int64 `json:"final"`
	Peak  int64 `json:"peak"`
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted (ascending) values
// by linear interpolation between closest order statistics (the R-7
// estimator): the quantile position is h = q·(n−1) and the result
// interpolates between sorted[⌊h⌋] and sorted[⌊h⌋+1]. Unlike nearest-rank
// rounding this keeps p50 of an even-count set at the midpoint of the two
// middle values and does not collapse high quantiles to the max for small
// sets. It is the one estimator: Digests applies it to every Ledger, which
// holds every latency and span-duration sample in the tree.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	h := q * float64(n-1)
	lo := int(h)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Summarize digests the recording. maxResources bounds the resource list
// (0 means all).
func (r *Recorder) Summarize(maxResources int) *Summary {
	if r == nil {
		return nil
	}
	s := &Summary{VirtualSeconds: float64(r.maxTime), Flows: len(r.flows)}

	durs := map[Category]*Ledger{}
	var cats []Category
	for _, tr := range r.tracks {
		for _, ev := range tr.events {
			if ev.Dur == instantDur {
				s.Instants++
				continue
			}
			d := ev.Dur
			if d == openDur {
				d = float64(r.maxTime - ev.Start)
			}
			l := durs[ev.Cat]
			if l == nil {
				l = new(Ledger)
				durs[ev.Cat] = l
				cats = append(cats, ev.Cat)
			}
			l.Add(d)
		}
	}
	slices.Sort(cats)
	ls := make([]*Ledger, len(cats))
	for i, cat := range cats {
		ls[i] = durs[cat]
	}
	for i, d := range Digests(ls...) {
		s.Spans = append(s.Spans, CategorySummary{
			Category:     string(cats[i]),
			Count:        d.Count,
			TotalSeconds: d.Total,
			P50:          d.P50,
			P95:          d.P95,
			P99:          d.P99,
			P999:         d.P999,
			MaxSeconds:   d.Max,
		})
	}

	end := float64(r.maxTime)
	for _, res := range r.timelineOrder {
		c := r.timelines[res]
		rs := ResourceSummary{Name: c.name, CapacityBps: c.capacity, Samples: len(c.samples)}
		if end > 0 {
			busy, util := 0.0, 0.0
			for i, smp := range c.samples {
				next := end
				if i+1 < len(c.samples) {
					next = float64(c.samples[i+1].t)
				}
				dt := next - float64(smp.t)
				if dt <= 0 {
					continue
				}
				if smp.rate > 0 {
					busy += dt
					util += smp.rate / c.capacity * dt
				}
			}
			rs.BusyFraction = busy / end
			rs.MeanUtilization = util / end
		}
		s.Resources = append(s.Resources, rs)
	}
	sort.Slice(s.Resources, func(i, j int) bool {
		if s.Resources[i].BusyFraction != s.Resources[j].BusyFraction {
			return s.Resources[i].BusyFraction > s.Resources[j].BusyFraction
		}
		return s.Resources[i].Name < s.Resources[j].Name
	})
	if maxResources > 0 && len(s.Resources) > maxResources {
		s.Resources = s.Resources[:maxResources]
	}
	for _, sr := range r.series {
		n := len(sr.points) // ≥ 1: a series registers with its first sample
		cs := CounterSummary{Name: sr.name, Samples: n, Final: sr.points[n-1].v, Peak: sr.points[0].v}
		for _, pt := range sr.points {
			cs.Peak = max(cs.Peak, pt.v)
		}
		s.Counters = append(s.Counters, cs)
	}
	return s
}
