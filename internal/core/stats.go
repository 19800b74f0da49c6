package core

// Operation statistics: the observability surface downstream users need to
// understand where their bytes went and which services fired. Counters are
// aggregated system-wide; per-file placement detail is available through
// the metadata ring.

import (
	"encoding/json"

	"univistor/internal/meta"
)

// Stats is a snapshot of UniviStor's operation counters.
type Stats struct {
	// BytesWritten counts client-written bytes by the tier they landed on.
	BytesWritten [meta.NumTiers]int64
	// BytesReadLocal counts bytes served by the location-aware local path
	// (no server hop).
	BytesReadLocal int64
	// BytesReadShared counts bytes read directly from shared tiers (BB,
	// PFS spill logs).
	BytesReadShared int64
	// BytesReadRemote counts bytes fetched from a remote node's private
	// tiers via a server round-trip.
	BytesReadRemote int64
	// BytesReadDegraded counts bytes rescued after the producer node failed:
	// served from the flushed PFS copy or the buddy-node replica.
	BytesReadDegraded int64
	// BytesFlushed counts logical bytes retired to the PFS by the flush
	// service (what the application persisted).
	BytesFlushed int64
	// BytesFlushedPhysical counts the bytes the flush actually moved with
	// dedup enabled — logical bytes minus the blocks an existing physical
	// copy satisfied. Zero when dedup is off.
	BytesFlushedPhysical int64
	// DedupBytesSaved is the cumulative flush traffic dedup avoided.
	DedupBytesSaved int64
	// CASGCRuns and CASGCBytes count the dedup layer's collection flows
	// and the bytes they reclaimed.
	CASGCRuns  int64
	CASGCBytes int64
	// Flushes counts completed flush operations.
	Flushes int64
	// MetaOps counts metadata record operations (inserts and lookups).
	MetaOps int64
	// OpenOps counts file open/close server operations.
	OpenOps int64
	// Replications counts volatile-tier segments mirrored to buddy nodes.
	Replications int64
	// Promotions counts segments migrated to faster tiers by proactive
	// placement.
	Promotions int64
	// Spills counts segments that could not be placed on the first tier of
	// the chain, in spill order.
	Spills int64
	// DroppedTiers lists configured cache tiers that were dropped at
	// deployment because their backend is unavailable on the cluster
	// (e.g. BB caching without a burst-buffer allocation).
	DroppedTiers []meta.Tier
}

// Stats returns a snapshot of the system's counters.
func (sys *System) Stats() Stats {
	s := sys.stats
	s.DroppedTiers = append([]meta.Tier(nil), sys.stats.DroppedTiers...)
	return s
}

// MarshalJSON renders the snapshot with per-tier byte counts keyed by tier
// name instead of positional arrays, so JSON consumers do not depend on the
// numeric tier order (which may grow as backends are added).
func (s Stats) MarshalJSON() ([]byte, error) {
	written := map[string]int64{}
	for t, b := range s.BytesWritten {
		if b != 0 {
			written[meta.Tier(t).String()] = b
		}
	}
	dropped := make([]string, 0, len(s.DroppedTiers))
	for _, t := range s.DroppedTiers {
		dropped = append(dropped, t.String())
	}
	return json.Marshal(struct {
		BytesWritten         map[string]int64 `json:"bytes_written_by_tier"`
		BytesReadLocal       int64            `json:"bytes_read_local"`
		BytesReadShared      int64            `json:"bytes_read_shared"`
		BytesReadRemote      int64            `json:"bytes_read_remote"`
		BytesReadDegraded    int64            `json:"bytes_read_degraded"`
		BytesFlushed         int64            `json:"bytes_flushed"`
		BytesFlushedPhysical int64            `json:"bytes_flushed_physical,omitempty"`
		DedupBytesSaved      int64            `json:"dedup_bytes_saved,omitempty"`
		CASGCRuns            int64            `json:"cas_gc_runs,omitempty"`
		CASGCBytes           int64            `json:"cas_gc_bytes,omitempty"`
		Flushes              int64            `json:"flushes"`
		MetaOps              int64            `json:"meta_ops"`
		OpenOps              int64            `json:"open_ops"`
		Replications         int64            `json:"replications"`
		Promotions           int64            `json:"promotions"`
		Spills               int64            `json:"spills"`
		DroppedTiers         []string         `json:"dropped_tiers"`
	}{written, s.BytesReadLocal, s.BytesReadShared, s.BytesReadRemote,
		s.BytesReadDegraded, s.BytesFlushed, s.BytesFlushedPhysical,
		s.DedupBytesSaved, s.CASGCRuns, s.CASGCBytes, s.Flushes, s.MetaOps,
		s.OpenOps, s.Replications, s.Promotions, s.Spills, dropped})
}

// TotalBytesWritten sums writes across tiers.
func (s Stats) TotalBytesWritten() int64 {
	var n int64
	for _, b := range s.BytesWritten {
		n += b
	}
	return n
}

// TotalBytesRead sums the four read paths (including degraded rescues).
func (s Stats) TotalBytesRead() int64 {
	return s.BytesReadLocal + s.BytesReadShared + s.BytesReadRemote + s.BytesReadDegraded
}
