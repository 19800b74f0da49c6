package core

// Table-driven edge cases backfilled while integrating the dedup layer:
// the delete and overwrite paths across tier chains — including spill onto
// the object store — whose refcount motion the content-addressed store
// depends on. Every case runs with dedup enabled and one block per
// segment, so each scenario's expected block map is written down exactly.

import (
	"bytes"
	"math/rand"
	"testing"

	"univistor/internal/castore"
	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/topology"
)

// edgePayload is a deterministic segment body.
func edgePayload(id int64, size int64) []byte {
	buf := make([]byte, size)
	rand.New(rand.NewSource(id)).Read(buf)
	return buf
}

// settleCAS spins virtual time until the background collector exits.
func settleCAS(sys *System, c *Client) {
	for sys.casGCBusy {
		c.rank.Compute(0.0001)
	}
}

// flushWait triggers the file's flush and blocks until it completes.
func flushWait(t *testing.T, sys *System, c *Client, f *ClientFile) {
	t.Helper()
	if err := f.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	sys.WaitFlush(c.rank.P, f.fs.name)
}

func TestDeleteOverwriteEdgeCases(t *testing.T) {
	const seg = 1 * mib
	cases := []struct {
		name  string
		chain []meta.Tier
		tweak func(*topology.Config, *Config)
		run   func(t *testing.T, sys *System, c *Client)
	}{
		{
			// Deleting a segment that never flushed: the log chunk is
			// punched, the cache shrinks, and the CAS — which has never
			// seen the file — must treat the range drop as a no-op. The
			// following flush moves only the surviving segment.
			name:  "delete-never-flushed-segment",
			chain: []meta.Tier{meta.TierDRAM},
			run: func(t *testing.T, sys *System, c *Client) {
				f, err := c.Open("f", mpi.WriteOnly)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				a, b := edgePayload(1, seg), edgePayload(2, seg)
				if err := f.WriteAt(0, seg, a); err != nil {
					t.Fatalf("write: %v", err)
				}
				if err := f.WriteAt(seg, seg, b); err != nil {
					t.Fatalf("write: %v", err)
				}
				n, err := f.Delete(0, seg)
				if err != nil || n != 1 {
					t.Fatalf("delete reclaimed %d segments (err %v), want 1", n, err)
				}
				if got := sys.CachedBytes("f"); got != seg {
					t.Errorf("cached bytes after delete = %d, want %d", got, seg)
				}
				if blocks := sys.cas.FileBlocks("f"); blocks != nil {
					t.Errorf("CAS tracks %v for a never-flushed file", blocks)
				}
				flushWait(t, sys, c, f)
				settleCAS(sys, c)
				if phys := sys.Stats().BytesFlushedPhysical; phys != seg {
					t.Errorf("physical flush moved %d bytes, want %d", phys, seg)
				}
				want := []uint64{castore.Hole, 0}
				got := sys.cas.FileBlocks("f")
				if len(got) != 2 || got[0] != want[0] || got[1] == castore.Hole {
					t.Errorf("block map %v, want [Hole, <hash>]", got)
				}
			},
		},
		{
			// Deleting a flushed segment drops its block reference and the
			// collector reclaims it as a real flow; the survivor still
			// reads back byte-identical.
			name:  "delete-flushed-segment-gc",
			chain: []meta.Tier{meta.TierDRAM, meta.TierBB},
			run: func(t *testing.T, sys *System, c *Client) {
				f, err := c.Open("f", mpi.WriteOnly)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				a, b := edgePayload(3, seg), edgePayload(4, seg)
				f.WriteAt(0, seg, a)
				f.WriteAt(seg, seg, b)
				flushWait(t, sys, c, f)
				settleCAS(sys, c)
				if n, err := f.Delete(0, seg); err != nil || n != 1 {
					t.Fatalf("delete reclaimed %d segments (err %v), want 1", n, err)
				}
				settleCAS(sys, c)
				if got := sys.Stats().CASGCBytes; got != seg {
					t.Errorf("GC reclaimed %d bytes, want %d", got, seg)
				}
				cs := sys.CASStats()
				if cs.DeadBytes != 0 || cs.Blocks != 1 || cs.LiveBytes != seg {
					t.Errorf("store after GC: %+v, want 1 live block of %d bytes", cs, seg)
				}
				got, err := f.ReadAt(seg, seg)
				if err != nil || !bytes.Equal(got, b) {
					t.Errorf("survivor read mismatch (err %v)", err)
				}
			},
		},
		{
			// Exact-key overwrite before any flush: only the latest content
			// reaches the store, the replaced bytes count as overwritten,
			// and the read returns the second write.
			name:  "overwrite-cached-segment",
			chain: []meta.Tier{meta.TierDRAM},
			run: func(t *testing.T, sys *System, c *Client) {
				f, err := c.Open("f", mpi.WriteOnly)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				a, b := edgePayload(5, seg), edgePayload(6, seg)
				f.WriteAt(0, seg, a)
				f.WriteAt(0, seg, b)
				flushWait(t, sys, c, f)
				settleCAS(sys, c)
				if phys := sys.Stats().BytesFlushedPhysical; phys != seg {
					t.Errorf("physical flush moved %d bytes, want %d (latest copy only)", phys, seg)
				}
				cs := sys.CASStats()
				if cs.Blocks != 1 || cs.LiveBytes != seg {
					t.Errorf("store holds %d blocks / %d bytes, want 1 / %d", cs.Blocks, cs.LiveBytes, seg)
				}
				got, err := f.ReadAt(0, seg)
				if err != nil || !bytes.Equal(got, b) {
					t.Errorf("read after cached overwrite mismatch (err %v)", err)
				}
			},
		},
		{
			// Overwriting an already-flushed segment: the re-flush interns
			// the new content, releases the old block, and the collector
			// frees exactly the replaced bytes.
			name:  "overwrite-flushed-segment",
			chain: []meta.Tier{meta.TierDRAM, meta.TierLocalSSD, meta.TierBB},
			tweak: func(tc *topology.Config, cc *Config) {
				tc.LocalSSDPerNode = 256 * mib
				tc.LocalSSDBW = 4 << 30
			},
			run: func(t *testing.T, sys *System, c *Client) {
				f, err := c.Open("f", mpi.WriteOnly)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				a, b := edgePayload(7, seg), edgePayload(8, seg)
				f.WriteAt(0, seg, a)
				flushWait(t, sys, c, f)
				settleCAS(sys, c)
				f.WriteAt(0, seg, b)
				flushWait(t, sys, c, f)
				settleCAS(sys, c)
				if phys := sys.Stats().BytesFlushedPhysical; phys != 2*seg {
					t.Errorf("physical flush moved %d bytes, want %d (both versions)", phys, 2*seg)
				}
				cs := sys.CASStats()
				if cs.Blocks != 1 || cs.FreedBytes != seg {
					t.Errorf("store: %+v, want 1 live block and %d bytes freed", cs, seg)
				}
				got, err := f.ReadAt(0, seg)
				if err != nil || !bytes.Equal(got, b) {
					t.Errorf("read after flushed overwrite mismatch (err %v)", err)
				}
			},
		},
		{
			// A delete range that only partially covers a segment leaves it
			// untouched: one whole segment goes, the half-covered one keeps
			// its bytes, its record, and its block reference.
			name:  "partial-range-delete",
			chain: []meta.Tier{meta.TierDRAM, meta.TierBB},
			run: func(t *testing.T, sys *System, c *Client) {
				f, err := c.Open("f", mpi.WriteOnly)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				a, b := edgePayload(9, seg), edgePayload(10, seg)
				f.WriteAt(0, seg, a)
				f.WriteAt(seg, seg, b)
				flushWait(t, sys, c, f)
				settleCAS(sys, c)
				if n, err := f.Delete(seg/2, seg+seg/2); err != nil || n != 1 {
					t.Fatalf("delete reclaimed %d segments (err %v), want 1 (partial overlap spared)", n, err)
				}
				settleCAS(sys, c)
				if got := sys.Stats().CASGCBytes; got != seg {
					t.Errorf("GC reclaimed %d bytes, want %d", got, seg)
				}
				blocks := sys.cas.FileBlocks("f")
				if len(blocks) != 2 || blocks[0] == castore.Hole || blocks[1] != castore.Hole {
					t.Errorf("block map %v, want [<hash>, Hole]", blocks)
				}
				got, err := f.ReadAt(0, seg)
				if err != nil || !bytes.Equal(got, a) {
					t.Errorf("partially covered segment corrupted (err %v)", err)
				}
			},
		},
		{
			// Spill onto the object store, overwrite there, delete the
			// DRAM-resident sibling before it ever flushes: the flush moves
			// only the object-resident segment's final bytes.
			name:  "objstore-spill-overwrite-delete",
			chain: []meta.Tier{meta.TierDRAM, meta.TierObject},
			tweak: func(tc *topology.Config, cc *Config) {
				cc.DRAMLogBytes = 1 * mib // one segment, then spill
			},
			run: func(t *testing.T, sys *System, c *Client) {
				f, err := c.Open("f", mpi.WriteOnly)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				a, b, b2 := edgePayload(11, seg), edgePayload(12, seg), edgePayload(13, seg)
				f.WriteAt(0, seg, a)
				f.WriteAt(seg, seg, b)
				f.WriteAt(seg, seg, b2)
				if got := sys.Stats().BytesWritten[meta.TierObject]; got == 0 {
					t.Fatal("nothing spilled onto the object tier")
				}
				if n, err := f.Delete(0, seg); err != nil || n != 1 {
					t.Fatalf("delete reclaimed %d segments (err %v), want 1", n, err)
				}
				flushWait(t, sys, c, f)
				settleCAS(sys, c)
				if phys := sys.Stats().BytesFlushedPhysical; phys != seg {
					t.Errorf("physical flush moved %d bytes, want %d", phys, seg)
				}
				blocks := sys.cas.FileBlocks("f")
				if len(blocks) != 2 || blocks[0] != castore.Hole || blocks[1] == castore.Hole {
					t.Errorf("block map %v, want [Hole, <hash>]", blocks)
				}
				got, err := f.ReadAt(seg, seg)
				if err != nil || !bytes.Equal(got, b2) {
					t.Errorf("read after object-tier overwrite mismatch (err %v)", err)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w, sys := testEnv(t, func(tpc *topology.Config, cc *Config) {
				cc.CacheTiers = append([]meta.Tier(nil), tc.chain...)
				cc.TierLogBytes = map[meta.Tier]int64{meta.TierObject: 64 * mib}
				cc.Dedup = true
				cc.DedupBlockBytes = seg
				cc.DedupGCBatchBytes = 4 * mib
				if tc.tweak != nil {
					tc.tweak(tpc, cc)
				}
			})
			runApp(t, w, sys, 1, 1, func(c *Client) { tc.run(t, sys, c) })
			if viol := sys.CheckInvariants(); len(viol) > 0 {
				t.Errorf("invariants violated: %v", viol)
			}
		})
	}
}
