package core

// Operation statistics: the observability surface downstream users need to
// understand where their bytes went and which services fired. Counters are
// aggregated system-wide; per-file placement detail is available through
// System.Segments, which reads the metadata service.

import (
	"encoding/json"

	"univistor/internal/meta"
)

// Stats is a snapshot of UniviStor's operation counters. Its JSON form is
// the schema of every report's "stats" object.
type Stats struct {
	// BytesWritten counts client-written bytes by the tier they landed on.
	BytesWritten tierBytes `json:"bytes_written_by_tier"`
	// BytesReadLocal counts bytes served by the location-aware local path
	// (no server hop).
	BytesReadLocal int64 `json:"bytes_read_local"`
	// BytesReadShared counts bytes read directly from shared tiers (BB,
	// PFS spill logs).
	BytesReadShared int64 `json:"bytes_read_shared"`
	// BytesReadRemote counts bytes fetched from a remote node's private
	// tiers via a server round-trip.
	BytesReadRemote int64 `json:"bytes_read_remote"`
	// BytesReadDegraded counts bytes rescued after the producer node failed:
	// served from the flushed PFS copy or the buddy-node replica.
	BytesReadDegraded int64 `json:"bytes_read_degraded"`
	// BytesFlushed counts logical bytes retired to the PFS by the flush
	// service (what the application persisted).
	BytesFlushed int64 `json:"bytes_flushed"`
	// BytesFlushedPhysical counts the bytes the flush actually moved with
	// dedup enabled — logical bytes minus the blocks an existing physical
	// copy satisfied. Zero when dedup is off.
	BytesFlushedPhysical int64 `json:"bytes_flushed_physical,omitempty"`
	// DedupBytesSaved is the cumulative flush traffic dedup avoided.
	DedupBytesSaved int64 `json:"dedup_bytes_saved,omitempty"`
	// CASGCRuns and CASGCBytes count the dedup layer's collection flows
	// and the bytes they reclaimed.
	CASGCRuns  int64 `json:"cas_gc_runs,omitempty"`
	CASGCBytes int64 `json:"cas_gc_bytes,omitempty"`
	// Flushes counts completed flush operations.
	Flushes int64 `json:"flushes"`
	// MetaOps counts metadata record operations (inserts and lookups).
	MetaOps int64 `json:"meta_ops"`
	// OpenOps counts file open/close server operations.
	OpenOps int64 `json:"open_ops"`
	// Replications counts volatile-tier segments mirrored to buddy nodes.
	Replications int64 `json:"replications"`
	// Promotions counts segments migrated to faster tiers by proactive
	// placement.
	Promotions int64 `json:"promotions"`
	// Spills counts segments that could not be placed on the first tier of
	// the chain, in spill order.
	Spills int64 `json:"spills"`
	// DroppedTiers lists configured cache tiers that were dropped at
	// deployment because their backend is unavailable on the cluster
	// (e.g. BB caching without a burst-buffer allocation).
	DroppedTiers tierList `json:"dropped_tiers"`
}

// tierBytes is a per-tier byte count. Its JSON form keys the non-zero
// tiers by name instead of position, so JSON consumers do not depend on
// the numeric tier order (which may grow as backends are added).
type tierBytes [meta.NumTiers]int64

func (b tierBytes) MarshalJSON() ([]byte, error) {
	byName := map[string]int64{}
	for t, n := range b {
		if n != 0 {
			byName[meta.Tier(t).String()] = n
		}
	}
	return json.Marshal(byName)
}

// total sums the tiers.
func (b tierBytes) total() int64 {
	var n int64
	for _, x := range b {
		n += x
	}
	return n
}

// tierList is a list of tiers. Its JSON form is an array of tier names,
// [] when empty.
type tierList []meta.Tier

func (l tierList) MarshalJSON() ([]byte, error) {
	names := make([]string, 0, len(l))
	for _, t := range l {
		names = append(names, t.String())
	}
	return json.Marshal(names)
}

// Stats returns a snapshot of the system's counters.
func (sys *System) Stats() Stats {
	s := sys.stats
	s.DroppedTiers = append(tierList(nil), sys.stats.DroppedTiers...)
	return s
}

// TotalBytesWritten sums writes across tiers.
func (s Stats) TotalBytesWritten() int64 { return s.BytesWritten.total() }

// TotalBytesRead sums the four read paths (including degraded rescues).
func (s Stats) TotalBytesRead() int64 {
	return s.BytesReadLocal + s.BytesReadShared + s.BytesReadRemote + s.BytesReadDegraded
}
