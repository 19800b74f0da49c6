package core

// Randomized differential test of the content-addressed flush layer. Each
// seed drives a different op sequence — fresh writes, identical-content
// rewrites, new-content overwrites, slot deletes, flushes — over a
// different cache-tier chain (2 to 5 tiers counting the implicit PFS
// terminal) and block/segment geometry, against a flat in-memory oracle
// that mirrors the CAS semantics from first principles. After every flush,
// once the background GC settles, the store is reconciled against the
// oracle exactly: per-file block maps, unique-block count, live and
// referenced bytes, zero dead bytes, and the system-wide conservation
// invariants.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"univistor/internal/castore"
	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/topology"
)

const dedupPropSeeds = 25

// Op kinds. Write and rewrite-new both bump the slot's content version;
// rewrite-same repeats the current version's tag (the pure dedup rewrite);
// delete drops the slot; flush drains, settles the GC, and reconciles.
const (
	opWrite = iota
	opRewriteSame
	opRewriteNew
	opDelete
	opFlush
)

type dedupOp struct {
	kind int
	file int // which of the two concurrently open files
	slot int // slot index inside each rank's region
}

// dedupGeom is one seed's layout: each rank owns a contiguous run of
// slots-many segBytes segments per file, rank regions back to back.
type dedupGeom struct {
	segBytes   int64
	blockBytes int64
	slots      int
	ranks      int
}

func (g dedupGeom) slotOff(rank, slot int) int64 {
	return (int64(rank)*int64(g.slots) + int64(slot)) * g.segBytes
}

func propFileName(fi int) string { return fmt.Sprintf("prop-%d", fi) }

// propTag is the content identity of one slot version. The file index is
// deliberately absent: the same (rank, slot, version) in both files stands
// for the same bytes, so the suite exercises cross-file dedup.
func propTag(rank, slot int, version uint64) uint64 {
	return castore.NewDigest().
		Word(uint64(rank)).
		Word(uint64(slot)).
		Word(version).
		Sum()
}

// genDedupOps draws the shared op sequence every rank replays symmetrically
// on its own region, with a final flush so the run always ends reconciled.
func genDedupOps(rng *rand.Rand, g dedupGeom, n int) []dedupOp {
	ops := make([]dedupOp, 0, n+1)
	for i := 0; i < n; i++ {
		var kind int
		switch k := rng.Intn(100); {
		case k < 30:
			kind = opWrite
		case k < 50:
			kind = opRewriteSame
		case k < 65:
			kind = opRewriteNew
		case k < 80:
			kind = opDelete
		default:
			kind = opFlush
		}
		ops = append(ops, dedupOp{kind: kind, file: rng.Intn(2), slot: rng.Intn(g.slots)})
	}
	return append(ops, dedupOp{kind: opFlush})
}

// oracleFile is the flat model of one file: the live segment tags (its
// logical image) plus a mirror of the store's block map, updated the same
// two ways the store is — recomputed wholesale at flush, holed by delete.
type oracleFile struct {
	segs   map[int64]uint64 // live segment offset → content tag
	size   int64            // logical size (monotone, like the system's)
	blocks []uint64         // expected store block map: hash per index
	sizes  []int64          // block extent sizes as of the last recompute
}

// recompute mirrors casPlanFlush + castore.UpdateFile: re-derive the whole
// block map from the live segments with the same fingerprint fold.
func (of *oracleFile) recompute(g dedupGeom) {
	bb := g.blockBytes
	n := (of.size + bb - 1) / bb
	blocks := make([]uint64, n)
	sizes := make([]int64, n)
	digests := make([]castore.Digest, n)
	touched := make([]bool, n)
	for i := int64(0); i < n; i++ {
		sizes[i] = bb
		if end := (i + 1) * bb; end > of.size {
			sizes[i] = of.size - i*bb
		}
		digests[i] = castore.NewDigest().Word(uint64(sizes[i]))
	}
	offs := make([]int64, 0, len(of.segs))
	for off := range of.segs {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, off := range offs {
		tag := of.segs[off]
		end := off + g.segBytes
		for idx := off / bb; idx < n && idx*bb < end; idx++ {
			bStart := idx * bb
			lo, hi := off, bStart+bb
			if bStart > lo {
				lo = bStart
			}
			if hi > end {
				hi = end
			}
			digests[idx] = digests[idx].
				Word(uint64(lo - bStart)).
				Word(uint64(lo - off)).
				Word(uint64(hi - lo)).
				Word(tag)
			touched[idx] = true
		}
	}
	for i := range blocks {
		if touched[i] {
			blocks[i] = digests[i].Sum()
		}
	}
	of.blocks = blocks
	of.sizes = sizes
}

// dedupHarness holds the oracle and reconciles it against the live store.
// Rank 0 maintains it for every rank: the op list is shared and the version
// evolution deterministic, so rank 1's writes are predictable from rank 0.
type dedupHarness struct {
	t      *testing.T
	seed   int
	sys    *System
	g      dedupGeom
	oracle [2]*oracleFile
	failed bool
}

// applyWrite records one slot version's content tags, tags[r] being rank
// r's segment identity (every rank writes the op symmetrically).
func (h *dedupHarness) applyWrite(fi, slot int, tags []uint64) {
	of := h.oracle[fi]
	for r := 0; r < h.g.ranks; r++ {
		off := h.g.slotOff(r, slot)
		of.segs[off] = tags[r]
		if end := off + h.g.segBytes; end > of.size {
			of.size = end
		}
	}
}

// applyDelete mirrors ClientFile.Delete + casDeleteRange: the slot's record
// leaves the logical image and the flushed blocks entirely inside the range
// turn to holes (edge blocks keep their reference until the next flush).
func (h *dedupHarness) applyDelete(fi, slot int) {
	of := h.oracle[fi]
	bb := h.g.blockBytes
	for r := 0; r < h.g.ranks; r++ {
		off := h.g.slotOff(r, slot)
		delete(of.segs, off)
		first := (off + bb - 1) / bb
		last := (off+h.g.segBytes)/bb - 1
		for i := first; i <= last && i < int64(len(of.blocks)); i++ {
			of.blocks[i] = castore.Hole
		}
	}
}

// reconcile compares the live store against the oracle exactly. Called with
// the flush pipeline drained and the GC idle.
func (h *dedupHarness) reconcile(step int) {
	if h.failed {
		return
	}
	fail := func(format string, args ...interface{}) {
		h.failed = true
		h.t.Errorf("seed %d op %d: %s", h.seed, step, fmt.Sprintf(format, args...))
	}
	if viol := h.sys.CheckInvariants(); len(viol) > 0 {
		fail("invariants violated: %v", viol)
		return
	}
	type blk struct {
		size int64
		refs int64
	}
	want := map[uint64]*blk{}
	for fi, of := range h.oracle {
		name := propFileName(fi)
		got := h.sys.cas.FileBlocks(name)
		if int64(len(got)) != int64(len(of.blocks)) {
			fail("file %s: store holds %d blocks, oracle %d", name, len(got), len(of.blocks))
			return
		}
		for i := range got {
			if got[i] != of.blocks[i] {
				fail("file %s block %d: store hash %x, oracle %x", name, i, got[i], of.blocks[i])
				return
			}
			if got[i] == castore.Hole {
				continue
			}
			b := want[got[i]]
			if b == nil {
				b = &blk{size: of.sizes[i]}
				want[got[i]] = b
			}
			b.refs++
		}
	}
	var live, ref int64
	for _, b := range want {
		live += b.size
		ref += b.refs * b.size
	}
	st := h.sys.cas.Stats()
	if st.DeadBytes != 0 {
		fail("%d dead bytes left after GC settled", st.DeadBytes)
	}
	if st.Blocks != len(want) || st.LiveBytes != live || st.RefBytes != ref {
		fail("store blocks=%d live=%d ref=%d, oracle blocks=%d live=%d ref=%d",
			st.Blocks, st.LiveBytes, st.RefBytes, len(want), live, ref)
	}
}

// propPayload derives the deterministic byte content of one slot version —
// rank and version shape the bytes, the file deliberately doesn't, so equal
// versions dedup across files while every read still has one right answer.
func propPayload(rank, slot int, version uint64, size int64) []byte {
	buf := make([]byte, size)
	rand.New(rand.NewSource(int64(propTag(rank, slot, version)))).Read(buf)
	return buf
}

// TestDedupPropertyRandomOps is the randomized property suite: 25 seeded
// op sequences, each on its own cache-tier chain and geometry, reconciled
// exactly against the oracle after every flush+GC cycle.
func TestDedupPropertyRandomOps(t *testing.T) {
	chains := [][]meta.Tier{
		{meta.TierDRAM},
		{meta.TierDRAM, meta.TierBB},
		{meta.TierDRAM, meta.TierLocalSSD, meta.TierBB},
		{meta.TierDRAM, meta.TierLocalSSD, meta.TierBB, meta.TierObject},
	}
	for seed := 0; seed < dedupPropSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := dedupGeom{
				// Geometry varies independently of the chain: segments both
				// at, above, and below the block size, so the suite folds
				// multi-segment blocks and segment-spanning blocks alike.
				segBytes:   int64(1+seed/4%2) * mib,
				blockBytes: int64(1+seed/8%2) * mib,
				slots:      4,
				ranks:      2,
			}
			chain := chains[seed%4]
			rng := rand.New(rand.NewSource(int64(1000 + seed)))
			ops := genDedupOps(rng, g, 40)
			w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
				tc.DRAMPerNode = 1024 * mib
				tc.BBCapPerNode = 1024 * mib
				tc.LocalSSDPerNode = 512 * mib
				tc.LocalSSDBW = 4 << 30
				cc.CacheTiers = append([]meta.Tier(nil), chain...)
				cc.TierLogBytes = map[meta.Tier]int64{meta.TierObject: 32 * mib}
				cc.Dedup = true
				cc.DedupBlockBytes = g.blockBytes
				// Small batches so a single reclaim cycle takes several GC
				// flow rounds.
				cc.DedupGCBatchBytes = 4 * mib
			})
			h := &dedupHarness{t: t, seed: seed, sys: sys, g: g,
				oracle: [2]*oracleFile{
					{segs: map[int64]uint64{}},
					{segs: map[int64]uint64{}},
				}}
			runApp(t, w, sys, g.ranks, 1, func(c *Client) {
				rank := c.rank.Rank()
				vers := [2][]uint64{make([]uint64, g.slots), make([]uint64, g.slots)}
				var files [2]*ClientFile
				for fi := range files {
					f, err := c.Open(propFileName(fi), mpi.WriteOnly)
					if err != nil {
						t.Errorf("seed %d rank %d: open: %v", seed, rank, err)
						return
					}
					files[fi] = f
				}
				for step, op := range ops {
					switch op.kind {
					case opWrite, opRewriteNew, opRewriteSame:
						v := vers[op.file][op.slot]
						if op.kind != opRewriteSame || v == 0 {
							v++
							vers[op.file][op.slot] = v
						}
						off := g.slotOff(rank, op.slot)
						tag := propTag(rank, op.slot, v)
						if err := files[op.file].WriteAtTagged(off, g.segBytes, nil, tag); err != nil {
							t.Errorf("seed %d rank %d op %d: write: %v", seed, rank, step, err)
							return
						}
						if rank == 0 {
							h.applyWrite(op.file, op.slot,
								[]uint64{propTag(0, op.slot, v), propTag(1, op.slot, v)})
						}
					case opDelete:
						off := g.slotOff(rank, op.slot)
						if _, err := files[op.file].Delete(off, g.segBytes); err != nil {
							t.Errorf("seed %d rank %d op %d: delete: %v", seed, rank, step, err)
							return
						}
						if rank == 0 {
							h.applyDelete(op.file, op.slot)
						}
					case opFlush:
						// All writes land before the skip decision is read:
						// the oracle recomputes exactly when triggerFlush
						// will run (cached bytes pending), mirroring its
						// empty-cache early return.
						c.rank.Barrier()
						if rank == 0 {
							for fi := range files {
								if sys.CachedBytes(propFileName(fi)) > 0 {
									h.oracle[fi].recompute(g)
								}
							}
						}
						for fi := range files {
							if err := files[fi].Flush(); err != nil {
								t.Errorf("seed %d rank %d op %d: flush: %v", seed, rank, step, err)
								return
							}
						}
						for fi := range files {
							sys.WaitFlush(c.rank.P, propFileName(fi))
						}
						c.rank.Barrier()
						if rank == 0 {
							for sys.casGCBusy {
								c.rank.Compute(0.0001)
							}
							h.reconcile(step)
						}
						c.rank.Barrier()
					}
				}
				for fi := range files {
					if err := files[fi].Close(); err != nil {
						t.Errorf("seed %d rank %d: close: %v", seed, rank, err)
					}
				}
			})
		})
	}
}

// TestDedupReadYourWrites is the payload-backed half of the property suite:
// writes carry real bytes (so the dedup fingerprint is the payload's own
// hash), interleaved reads must return exactly what this rank last wrote,
// and a final cross-rank sweep reads every live slot — local, remote, and
// dedup-flushed copies alike — against the oracle's bytes. CAS refcounts
// reconcile exactly at every flush, as in the size-only suite.
func TestDedupReadYourWrites(t *testing.T) {
	chains := [][]meta.Tier{
		{meta.TierDRAM},
		{meta.TierDRAM, meta.TierBB},
		{meta.TierDRAM, meta.TierLocalSSD, meta.TierBB},
		{meta.TierDRAM, meta.TierLocalSSD, meta.TierBB, meta.TierObject},
	}
	const opRead = opFlush + 1
	for seed := 0; seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := dedupGeom{segBytes: 256 * kib, blockBytes: 128 * kib, slots: 4, ranks: 2}
			rng := rand.New(rand.NewSource(int64(7000 + seed)))
			ops := make([]dedupOp, 0, 31)
			for i := 0; i < 30; i++ {
				var kind int
				switch k := rng.Intn(100); {
				case k < 25:
					kind = opWrite
				case k < 40:
					kind = opRewriteSame
				case k < 55:
					kind = opRewriteNew
				case k < 70:
					kind = opDelete
				case k < 80:
					kind = opFlush
				default:
					kind = opRead
				}
				ops = append(ops, dedupOp{kind: kind, file: rng.Intn(2), slot: rng.Intn(g.slots)})
			}
			ops = append(ops, dedupOp{kind: opFlush})
			w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
				tc.LocalSSDPerNode = 512 * mib
				tc.LocalSSDBW = 4 << 30
				cc.CacheTiers = append([]meta.Tier(nil), chains[seed%4]...)
				cc.TierLogBytes = map[meta.Tier]int64{meta.TierObject: 32 * mib}
				// Sub-segment chunks so range deletes punch real log chunks.
				cc.ChunkSize = 64 * kib
				cc.Dedup = true
				cc.DedupBlockBytes = g.blockBytes
				cc.DedupGCBatchBytes = 256 * kib
			})
			h := &dedupHarness{t: t, seed: seed, sys: sys, g: g,
				oracle: [2]*oracleFile{
					{segs: map[int64]uint64{}},
					{segs: map[int64]uint64{}},
				}}
			runApp(t, w, sys, g.ranks, 1, func(c *Client) {
				rank := c.rank.Rank()
				vers := [2][]uint64{make([]uint64, g.slots), make([]uint64, g.slots)}
				live := [2][]bool{make([]bool, g.slots), make([]bool, g.slots)}
				var files [2]*ClientFile
				for fi := range files {
					f, err := c.Open(propFileName(fi), mpi.WriteOnly)
					if err != nil {
						t.Errorf("seed %d rank %d: open: %v", seed, rank, err)
						return
					}
					files[fi] = f
				}
				for step, op := range ops {
					switch op.kind {
					case opWrite, opRewriteNew, opRewriteSame:
						v := vers[op.file][op.slot]
						if op.kind != opRewriteSame || v == 0 {
							v++
							vers[op.file][op.slot] = v
						}
						off := g.slotOff(rank, op.slot)
						data := propPayload(rank, op.slot, v, g.segBytes)
						if err := files[op.file].WriteAt(off, g.segBytes, data); err != nil {
							t.Errorf("seed %d rank %d op %d: write: %v", seed, rank, step, err)
							return
						}
						live[op.file][op.slot] = true
						if rank == 0 {
							h.applyWrite(op.file, op.slot, []uint64{
								castore.HashBytes(propPayload(0, op.slot, v, g.segBytes)),
								castore.HashBytes(propPayload(1, op.slot, v, g.segBytes)),
							})
						}
					case opDelete:
						off := g.slotOff(rank, op.slot)
						if _, err := files[op.file].Delete(off, g.segBytes); err != nil {
							t.Errorf("seed %d rank %d op %d: delete: %v", seed, rank, step, err)
							return
						}
						live[op.file][op.slot] = false
						if rank == 0 {
							h.applyDelete(op.file, op.slot)
						}
					case opRead:
						// Read-your-writes: this rank's own copy, whatever
						// tier or flush state it is in right now.
						if !live[op.file][op.slot] {
							continue
						}
						off := g.slotOff(rank, op.slot)
						got, err := files[op.file].ReadAt(off, g.segBytes)
						if err != nil {
							t.Errorf("seed %d rank %d op %d: read: %v", seed, rank, step, err)
							return
						}
						want := propPayload(rank, op.slot, vers[op.file][op.slot], g.segBytes)
						if !bytes.Equal(got, want) {
							t.Errorf("seed %d rank %d op %d: read-your-writes mismatch on file %d slot %d",
								seed, rank, step, op.file, op.slot)
							return
						}
					case opFlush:
						c.rank.Barrier()
						if rank == 0 {
							for fi := range files {
								if sys.CachedBytes(propFileName(fi)) > 0 {
									h.oracle[fi].recompute(g)
								}
							}
						}
						for fi := range files {
							if err := files[fi].Flush(); err != nil {
								t.Errorf("seed %d rank %d op %d: flush: %v", seed, rank, step, err)
								return
							}
						}
						for fi := range files {
							sys.WaitFlush(c.rank.P, propFileName(fi))
						}
						c.rank.Barrier()
						if rank == 0 {
							for sys.casGCBusy {
								c.rank.Compute(0.0001)
							}
							h.reconcile(step)
						}
						c.rank.Barrier()
					}
				}
				// Cross-rank sweep: every rank reads every live slot of both
				// ranks — the remote and dedup-flushed read paths.
				c.rank.Barrier()
				for fi := range files {
					for slot := 0; slot < g.slots; slot++ {
						if !live[fi][slot] {
							continue
						}
						for r2 := 0; r2 < g.ranks; r2++ {
							off := g.slotOff(r2, slot)
							got, err := files[fi].ReadAt(off, g.segBytes)
							if err != nil {
								t.Errorf("seed %d rank %d: sweep read file %d slot %d of rank %d: %v",
									seed, rank, fi, slot, r2, err)
								return
							}
							want := propPayload(r2, slot, vers[fi][slot], g.segBytes)
							if !bytes.Equal(got, want) {
								t.Errorf("seed %d rank %d: sweep mismatch on file %d slot %d of rank %d",
									seed, rank, fi, slot, r2)
								return
							}
						}
					}
				}
				c.rank.Barrier()
				for fi := range files {
					if err := files[fi].Close(); err != nil {
						t.Errorf("seed %d rank %d: close: %v", seed, rank, err)
					}
				}
			})
		})
	}
}
