// Package meta defines the storage-tier taxonomy, the virtual-address (VA)
// scheme of paper §II-B2 (Eq. 1), and the metadata records of the
// distributed metadata service (§II-B3). The service's range-partitioning
// rule lives with its stores, in core's ring service and metaplane.
//
// A segment's VA identifies both the storage tier its log lives on and its
// physical (log-local) address within that tier:
//
//	VA_i = Σ_{k<i} C_k + A_i
//
// where C_k is the per-process log capacity on tier k and A_i is the
// segment's address inside the tier-i log. (The paper's Eq. 1 prints the
// summation bound as k ≤ i; the worked example — D4 at physical address 1 in
// a tier whose lower neighbour holds 2 units has VA 3 — shows the intended
// bound is k < i.)
package meta

import "fmt"

// Tier enumerates the storage layers, ordered fastest to slowest. The
// numeric order is the spill order of distributed hierarchical placement.
type Tier int

const (
	// TierDRAM is the node-local memory-mapped log tier.
	TierDRAM Tier = iota
	// TierLocalSSD is an optional node-local NVRAM/SSD tier.
	TierLocalSSD
	// TierBB is the shared burst buffer.
	TierBB
	// TierObject is a flat-namespace object store: globally visible,
	// high-latency, high-aggregate-bandwidth — the kind of campaign-storage
	// layer HPC stacks slot between the burst buffer and the PFS.
	TierObject
	// TierPFS is the disk-based parallel file system.
	TierPFS

	// NumTiers is the number of storage layers.
	NumTiers = int(TierPFS) + 1
)

// String returns the tier's conventional name.
func (t Tier) String() string {
	switch t {
	case TierDRAM:
		return "DRAM"
	case TierLocalSSD:
		return "LocalSSD"
	case TierBB:
		return "BB"
	case TierObject:
		return "Object"
	case TierPFS:
		return "PFS"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// AddressSpace is one process's per-tier log capacities, fixing the VA
// layout for that process's segments. The PFS (last tier) is treated as
// unbounded: every VA at or beyond its base decodes to it.
type AddressSpace struct {
	caps   [NumTiers]int64
	prefix [NumTiers + 1]int64 // prefix[i] = Σ_{k<i} caps[k]
}

// NewAddressSpace builds an address space from per-tier log capacities.
// Absent tiers use capacity zero. The PFS capacity may be zero; it is
// unbounded regardless.
func NewAddressSpace(caps [NumTiers]int64) (AddressSpace, error) {
	var a AddressSpace
	for i, c := range caps {
		if c < 0 {
			return a, fmt.Errorf("meta: tier %s capacity %d is negative", Tier(i), c)
		}
	}
	a.caps = caps
	for i := 0; i < NumTiers; i++ {
		a.prefix[i+1] = a.prefix[i] + caps[i]
	}
	return a, nil
}

// Cap returns the log capacity of the given tier.
func (a AddressSpace) Cap(t Tier) int64 { return a.caps[t] }

// Base returns the lowest VA mapped to the given tier.
func (a AddressSpace) Base(t Tier) int64 { return a.prefix[t] }

// Encode returns the VA of a segment at physical address addr within the
// tier-t log (Eq. 1).
func (a AddressSpace) Encode(t Tier, addr int64) (int64, error) {
	if addr < 0 {
		return 0, fmt.Errorf("meta: negative physical address %d", addr)
	}
	if t != TierPFS && addr >= a.caps[t] {
		return 0, fmt.Errorf("meta: address %d exceeds %s log capacity %d", addr, t, a.caps[t])
	}
	return a.prefix[t] + addr, nil
}

// Decode splits a VA into its tier and physical (log-local) address.
func (a AddressSpace) Decode(va int64) (Tier, int64, error) {
	if va < 0 {
		return 0, 0, fmt.Errorf("meta: negative VA %d", va)
	}
	for t := 0; t < NumTiers-1; t++ {
		if va < a.prefix[t+1] {
			return Tier(t), va - a.prefix[t], nil
		}
	}
	return TierPFS, va - a.prefix[TierPFS], nil
}

// FileID identifies one logical shared file in the unified namespace.
type FileID int64

// Record is the metadata entry for one file segment: it maps the segment's
// logical position in the shared file to the producing process and the VA
// inside that process's logs.
type Record struct {
	FID    FileID
	Offset int64 // logical offset in the shared file
	Size   int64
	Proc   int   // source process (global client rank)
	VA     int64 // virtual address within the source process's logs
}

// Key orders records by (FID, Offset).
type Key struct {
	FID    FileID
	Offset int64
}

// Key returns the record's ordering key.
func (r Record) Key() Key { return Key{r.FID, r.Offset} }

// Less orders keys by file then offset.
func (k Key) Less(o Key) bool {
	if k.FID != o.FID {
		return k.FID < o.FID
	}
	return k.Offset < o.Offset
}
