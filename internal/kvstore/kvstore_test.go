package kvstore

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"univistor/internal/meta"
)

func rec(fid meta.FileID, off, size int64, proc int) meta.Record {
	return meta.Record{FID: fid, Offset: off, Size: size, Proc: proc, VA: off * 10}
}

func TestStorePutGetDelete(t *testing.T) {
	s := NewStore()
	s.Put(rec(1, 100, 10, 7))
	got, ok := s.Get(meta.Key{FID: 1, Offset: 100})
	if !ok || got.Proc != 7 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := s.Get(meta.Key{FID: 1, Offset: 101}); ok {
		t.Error("Get of absent key succeeded")
	}
	// Replace.
	s.Put(rec(1, 100, 10, 9))
	got, _ = s.Get(meta.Key{FID: 1, Offset: 100})
	if got.Proc != 9 || s.Len() != 1 {
		t.Errorf("replace failed: %+v len=%d", got, s.Len())
	}
	if !s.Delete(meta.Key{FID: 1, Offset: 100}) {
		t.Error("Delete of present key failed")
	}
	if s.Delete(meta.Key{FID: 1, Offset: 100}) {
		t.Error("Delete of absent key succeeded")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after delete", s.Len())
	}
}

func TestStoreOrderedScanAndFloor(t *testing.T) {
	s := NewStore()
	for _, off := range []int64{50, 10, 30, 20, 40} {
		s.Put(rec(1, off, 5, 0))
	}
	s.Put(rec(2, 15, 5, 0)) // other file
	var offs []int64
	s.Scan(meta.Key{FID: 1, Offset: 15}, meta.Key{FID: 1, Offset: 45}, func(r meta.Record) bool {
		offs = append(offs, r.Offset)
		return true
	})
	want := []int64{20, 30, 40}
	if len(offs) != 3 || offs[0] != 20 || offs[1] != 30 || offs[2] != 40 {
		t.Errorf("Scan = %v, want %v", offs, want)
	}
	f, ok := s.Floor(meta.Key{FID: 1, Offset: 35})
	if !ok || f.Offset != 30 {
		t.Errorf("Floor(35) = %+v, want offset 30", f)
	}
	f, ok = s.Floor(meta.Key{FID: 1, Offset: 10})
	if !ok || f.Offset != 10 {
		t.Errorf("Floor(10) = %+v, want exact match", f)
	}
	if _, ok := s.Floor(meta.Key{FID: 0, Offset: 5}); ok {
		t.Error("Floor below all keys succeeded")
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := NewStore()
	for off := int64(0); off < 100; off += 10 {
		s.Put(rec(1, off, 10, 0))
	}
	n := 0
	s.Scan(meta.Key{FID: 1, Offset: 0}, meta.Key{FID: 1, Offset: 100}, func(r meta.Record) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d records, want 3", n)
	}
}

// checkBlocks walks the store's layout: every block is non-empty, holds at
// most blockCap records in a backing array of blockCap+1 and is sorted;
// firsts[i] is the key of blocks[i][0]; blocks are in key order; the
// block sizes add up to Len; and every spare block is empty with the same
// backing array. Each appended file, built by Puts past every stored key,
// must fill its blocks: the records that did not join the block holding
// the keys before it occupy ⌈n/blockCap⌉ blocks.
func checkBlocks(s *Store, appended ...meta.FileID) error {
	if len(s.firsts) != len(s.blocks) {
		return fmt.Errorf("%d firsts for %d blocks", len(s.firsts), len(s.blocks))
	}
	n := 0
	for i, b := range s.blocks {
		if len(b) == 0 || len(b) > blockCap {
			return fmt.Errorf("block %d holds %d records, want 1..%d", i, len(b), blockCap)
		}
		if cap(b) != blockCap+1 {
			return fmt.Errorf("block %d has cap %d, want %d: it was regrown", i, cap(b), blockCap+1)
		}
		if s.firsts[i] != b[0].Key() {
			return fmt.Errorf("firsts[%d] = %v, block starts at %v", i, s.firsts[i], b[0].Key())
		}
		for j := 1; j < len(b); j++ {
			if !b[j-1].Key().Less(b[j].Key()) {
				return fmt.Errorf("block %d unsorted at %d: %v then %v", i, j, b[j-1].Key(), b[j].Key())
			}
		}
		if i > 0 {
			prev := s.blocks[i-1]
			if !prev[len(prev)-1].Key().Less(b[0].Key()) {
				return fmt.Errorf("block %d starts at %v, not after block %d's last key %v",
					i, b[0].Key(), i-1, prev[len(prev)-1].Key())
			}
		}
		n += len(b)
	}
	if n != s.Len() {
		return fmt.Errorf("blocks hold %d records, Len = %d", n, s.Len())
	}
	for i, b := range s.spare {
		if len(b) != 0 || cap(b) != blockCap+1 {
			return fmt.Errorf("spare block %d has len %d cap %d, want 0 and %d", i, len(b), cap(b), blockCap+1)
		}
	}
	for _, fid := range appended {
		recs, blocks := 0, 0
		for _, b := range s.blocks {
			if b[0].FID == fid {
				blocks++
			}
			for _, r := range b {
				if r.FID == fid && b[0].FID == fid {
					recs++
				}
			}
		}
		if want := (recs + blockCap - 1) / blockCap; blocks != want {
			return fmt.Errorf("appended file %d holds %d records in %d blocks of its own, want %d",
				fid, recs, blocks, want)
		}
	}
	return nil
}

// Property: a store agrees with a sorted reference slice under random
// put/delete/get/floor/scan sequences, in three phases. Random: 3 files ×
// 2,000 offsets, a growth phase, then a delete-heavy phase that drains
// most of the store. Append: three more files grow at rising offsets,
// interleaved. Retention: one of those files drains completely, in random
// order, and a new file of the same size is appended after every stored
// key. The block layout is walked every few operations, and the store
// never holds more blocks, live and spare, than it once held live.
func TestStoreMatchesReferenceModel(t *testing.T) {
	const (
		fids      = 3
		offsets   = 2000
		growOps   = 12000
		drainOps  = 8000
		appendOps = 6000
	)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		var ref []meta.Record // sorted by key
		phase, op, peak := "random", 0, 0
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d %s op %d: %s", seed, phase, op, fmt.Sprintf(format, args...))
		}
		check := func(appended ...meta.FileID) {
			t.Helper()
			if err := checkBlocks(s, appended...); err != nil {
				fail("%v", err)
			}
			if held := len(s.blocks) + len(s.spare); held > peak {
				fail("store holds %d blocks, live and spare, but at most %d were live at once", held, peak)
			}
		}
		search := func(key meta.Key) (int, bool) {
			return slices.BinarySearchFunc(ref, key, func(r meta.Record, k meta.Key) int {
				switch {
				case r.Key().Less(k):
					return -1
				case k.Less(r.Key()):
					return 1
				}
				return 0
			})
		}
		put := func(r meta.Record) {
			s.Put(r)
			if i, ok := search(r.Key()); ok {
				ref[i] = r
			} else {
				ref = slices.Insert(ref, i, r)
			}
			peak = max(peak, len(s.blocks))
		}
		del := func(key meta.Key) {
			i, ok := search(key)
			if got := s.Delete(key); got != ok {
				fail("Delete(%v) = %v, want %v", key, got, ok)
			}
			if ok {
				ref = slices.Delete(ref, i, i+1)
			}
		}
		// randKey draws a key of any file, sometimes just outside the
		// populated ranges.
		randKey := func() meta.Key {
			return meta.Key{FID: meta.FileID(rng.Intn(9)), Offset: int64(rng.Intn(offsets+2)) - 1}
		}
		// read checks one Get, Floor or Scan against the reference.
		read := func(key meta.Key) {
			switch c := rng.Intn(3); c {
			case 0:
				got, ok := s.Get(key)
				i, wok := search(key)
				if ok != wok || (ok && got != ref[i]) {
					fail("Get(%v) = %+v, %v", key, got, ok)
				}
			case 1:
				key = randKey()
				got, ok := s.Floor(key)
				i, exact := search(key)
				if !exact {
					i--
				}
				if ok != (i >= 0) || (ok && got != ref[i]) {
					fail("Floor(%v) = %+v, %v", key, got, ok)
				}
			default:
				lo, hi := randKey(), randKey()
				var got []meta.Record
				s.Scan(lo, hi, func(r meta.Record) bool {
					got = append(got, r)
					return true
				})
				i, _ := search(lo)
				j, _ := search(hi)
				want := ref[i:max(i, j)]
				if !slices.Equal(got, want) {
					fail("Scan(%v, %v) returned %d records, want %d", lo, hi, len(got), len(want))
				}
			}
		}
		for ; op < growOps+drainOps; op++ {
			putPct, delPct := 55, 15
			if op >= growOps {
				putPct, delPct = 10, 70
			}
			key := meta.Key{FID: meta.FileID(rng.Intn(fids) + 1), Offset: int64(rng.Intn(offsets))}
			switch c := rng.Intn(100); {
			case c < putPct:
				put(rec(key.FID, key.Offset, int64(rng.Intn(10)+1), rng.Intn(50)))
			case c < putPct+delPct:
				// Mostly delete a stored key, so the drain phase drains.
				if len(ref) > 0 && rng.Intn(4) != 0 {
					key = ref[rng.Intn(len(ref))].Key()
				}
				del(key)
			default:
				read(key)
			}
			if op%16 == 0 || op == growOps-1 {
				check()
			}
		}

		phase = "append"
		var next [3]int64
		for op = 0; op < appendOps; op++ {
			f := rng.Intn(3)
			put(rec(meta.FileID(4+f), next[f], 1, op))
			next[f] += int64(rng.Intn(3) + 1)
			if rng.Intn(4) == 0 {
				read(meta.Key{FID: meta.FileID(4 + rng.Intn(3)), Offset: int64(rng.Intn(offsets))})
			}
			if op%16 == 0 {
				check()
			}
		}

		phase = "retention"
		var drained []meta.Key
		for _, r := range ref {
			if r.FID == 4 {
				drained = append(drained, r.Key())
			}
		}
		rng.Shuffle(len(drained), func(i, j int) { drained[i], drained[j] = drained[j], drained[i] })
		for op = 0; op < len(drained); op++ {
			del(drained[op])
			if op%16 == 0 {
				check()
			}
		}
		for op = 0; op < len(drained); op++ {
			put(rec(7, int64(op), 1, op))
			if op%16 == 0 {
				check(7)
			}
		}
		check(7)
		if s.Len() != len(ref) || !slices.Equal(s.All(), ref) {
			t.Fatalf("seed %d: All has %d records, want %d in key order", seed, s.Len(), len(ref))
		}
	}
}

// filledStore returns a store of n records of file 1 at offsets 0, 2, …,
// 2(n-1), inserted in a seeded random order.
func filledStore(n int) *Store {
	s := NewStore()
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		s.Put(rec(1, 2*int64(i), 2, i))
	}
	return s
}

// storeBenchRecords is the largest store a ckpt run builds.
const storeBenchRecords = 4096

func TestStoreReadsDoNotAllocate(t *testing.T) {
	s := filledStore(storeBenchRecords)
	key := meta.Key{FID: 1, Offset: 2000}
	for name, fn := range map[string]func(){
		"Get":   func() { s.Get(key) },
		"Floor": func() { s.Floor(meta.Key{FID: 1, Offset: 2001}) },
		"Scan": func() {
			s.Scan(key, meta.Key{FID: 1, Offset: 2200}, func(meta.Record) bool { return true })
		},
		"Put replace": func() { s.Put(rec(1, 2000, 2, 7)) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// BenchmarkStorePut builds stores of storeBenchRecords records, one Put per
// op in a random key order.
func BenchmarkStorePut(b *testing.B) {
	order := rand.New(rand.NewSource(1)).Perm(storeBenchRecords)
	var s *Store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % storeBenchRecords
		if k == 0 {
			s = NewStore()
		}
		s.Put(rec(1, 2*int64(order[k]), 2, k))
	}
}

// BenchmarkStoreFloor looks up offsets between the keys of a
// storeBenchRecords-record store.
func BenchmarkStoreFloor(b *testing.B) {
	s := filledStore(storeBenchRecords)
	order := rand.New(rand.NewSource(2)).Perm(storeBenchRecords)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		floorSink, _ = s.Floor(meta.Key{FID: 1, Offset: 2*int64(order[i%storeBenchRecords]) + 1})
	}
}

// floorSink keeps BenchmarkStoreFloor's lookups from being optimized away.
var floorSink meta.Record

// BenchmarkStoreDelete drains storeBenchRecords-record stores, one Delete
// per op in a random key order.
func BenchmarkStoreDelete(b *testing.B) {
	order := rand.New(rand.NewSource(3)).Perm(storeBenchRecords)
	var s *Store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % storeBenchRecords
		if k == 0 {
			b.StopTimer()
			s = filledStore(storeBenchRecords)
			b.StartTimer()
		}
		s.Delete(meta.Key{FID: 1, Offset: 2 * int64(order[k])})
	}
}

// BenchmarkStoreAppend builds stores of storeBenchRecords records the way a
// sequential writer does, one Put per op at rising offsets.
func BenchmarkStoreAppend(b *testing.B) {
	var s *Store
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % storeBenchRecords
		if k == 0 {
			s = NewStore()
		}
		s.Put(rec(1, 2*int64(k), 2, k))
	}
}

// churn drains a store's one file of storeBenchRecords records in a random
// order and appends the next file of the same size, as a checkpoint's
// retention does. Its step does one Delete or Put.
type churn struct {
	s     *Store
	order []int
	fid   meta.FileID
	k     int
}

func newChurn() *churn {
	c := &churn{s: NewStore(), order: rand.New(rand.NewSource(5)).Perm(storeBenchRecords), fid: 1}
	for i := 0; i < storeBenchRecords; i++ {
		c.s.Put(rec(c.fid, 2*int64(i), 2, i))
	}
	return c
}

func (c *churn) step() {
	if c.k < storeBenchRecords {
		c.s.Delete(meta.Key{FID: c.fid, Offset: 2 * int64(c.order[c.k])})
	} else {
		i := c.k - storeBenchRecords
		c.s.Put(rec(c.fid+1, 2*int64(i), 2, i))
	}
	if c.k++; c.k == 2*storeBenchRecords {
		c.fid, c.k = c.fid+1, 0
	}
}

// cycle runs one drain and rebuild.
func (c *churn) cycle() {
	for i := 0; i < 2*storeBenchRecords; i++ {
		c.step()
	}
}

// After one warm-up cycle, draining a file and appending the next reuses
// the drained blocks: the cycle allocates nothing, and the new file fills
// its blocks.
func TestStoreChurnReusesBlocks(t *testing.T) {
	c := newChurn()
	// AllocsPerRun runs one cycle as its warm-up.
	if n := testing.AllocsPerRun(3, c.cycle); n != 0 {
		t.Errorf("a warm drain-and-rebuild cycle allocates %v times, want 0", n)
	}
	if err := checkBlocks(c.s, c.fid); err != nil {
		t.Fatal(err)
	}
	if want := storeBenchRecords / blockCap; len(c.s.blocks) != want {
		t.Errorf("rebuilt file occupies %d blocks, want %d", len(c.s.blocks), want)
	}
}

// BenchmarkStoreChurn drains and rebuilds a storeBenchRecords-record file,
// one Delete or Put per op.
func BenchmarkStoreChurn(b *testing.B) {
	c := newChurn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
}

// testRing lays records out as the ring metadata service does, every
// server's partitions in one store, and also in one store per server: the
// layout whose coverings the one store must reproduce. Records are homed by
// the ring's rule, offset / rangeSize mod servers.
type testRing struct {
	rangeSize int64
	one       *Store
	stores    []*Store
}

func newTestRing(servers int, rangeSize int64) *testRing {
	r := &testRing{rangeSize: rangeSize, one: NewStore()}
	for i := 0; i < servers; i++ {
		r.stores = append(r.stores, NewStore())
	}
	return r
}

func (r *testRing) home(off int64) int { return int(off / r.rangeSize % int64(len(r.stores))) }

func (r *testRing) put(rc meta.Record) {
	r.one.Put(rc)
	r.stores[r.home(rc.Offset)].Put(rc)
}

// del removes the exact key from both layouts.
func (r *testRing) del(t *testing.T, fid meta.FileID, off int64) bool {
	t.Helper()
	key := meta.Key{FID: fid, Offset: off}
	ok := r.one.Delete(key)
	if r.stores[r.home(off)].Delete(key) != ok {
		t.Fatalf("Delete(%d) differs between one store and per-server stores", off)
	}
	return ok
}

// at is the ring service's partition map: every server shares one store.
func (r *testRing) at(off int64) (int, *Store) { return r.home(off), r.one }

// perServer maps a partition to its own server's store.
func (r *testRing) perServer(off int64) (int, *Store) {
	srv := r.home(off)
	return srv, r.stores[srv]
}

// cover returns the one store's covering, failing t unless the per-server
// stores return exactly the same records and servers.
func (r *testRing) cover(t *testing.T, fid meta.FileID, off, size int64) ([]meta.Record, []int) {
	t.Helper()
	recs, servers := CoverRange(nil, nil, fid, off, size, r.rangeSize, r.at)
	want, wantServers := CoverRange(nil, nil, fid, off, size, r.rangeSize, r.perServer)
	if !slices.Equal(recs, want) || !slices.Equal(servers, wantServers) {
		t.Errorf("CoverRange(%d, %d, %d) over one store = %v %v, per server %v %v",
			fid, off, size, recs, servers, want, wantServers)
	}
	return recs, servers
}

func TestRingCoveringExactSegments(t *testing.T) {
	r := newTestRing(2, 100)
	for off := int64(0); off < 1000; off += 50 {
		r.put(rec(1, off, 50, int(off/50)))
	}
	recs, servers := r.cover(t, 1, 200, 300) // segments at 200..450
	if len(recs) != 6 {
		t.Fatalf("Covering returned %d records, want 6: %+v", len(recs), recs)
	}
	for i, rr := range recs {
		if want := int64(200 + 50*i); rr.Offset != want {
			t.Errorf("record %d offset %d, want %d", i, rr.Offset, want)
		}
	}
	if len(servers) == 0 {
		t.Error("no servers reported")
	}
}

// A record straddling into the range from the partition before is served
// by that partition's server, which the covering reports after the range's
// own.
func TestRingCoveringPartialOverlaps(t *testing.T) {
	r := newTestRing(3, 100)
	r.put(rec(1, 90, 50, 1))  // straddles boundary at 100, stored on server of 90
	r.put(rec(1, 140, 20, 2)) // inside partition 1
	// Request [120, 150): overlaps both records.
	recs, _ := r.cover(t, 1, 120, 30)
	if len(recs) != 2 {
		t.Fatalf("Covering = %+v, want both overlapping records", recs)
	}
	if recs[0].Offset != 90 || recs[1].Offset != 140 {
		t.Errorf("records = %+v", recs)
	}
	// Request entirely within the straddler's tail partition.
	recs, servers := r.cover(t, 1, 100, 10)
	if len(recs) != 1 || recs[0].Offset != 90 {
		t.Errorf("tail lookup = %+v, want the straddling record", recs)
	}
	if !slices.Equal(servers, []int{1, 0}) {
		t.Errorf("tail lookup contacted %v, want [1 0]: the range's server, then the straddler's", servers)
	}
}

func TestRingCoveringNoMatch(t *testing.T) {
	r := newTestRing(2, 100)
	r.put(rec(1, 0, 10, 0))
	recs, _ := r.cover(t, 1, 500, 50)
	if len(recs) != 0 {
		t.Errorf("Covering of empty range = %+v", recs)
	}
	recs, _ = r.cover(t, 2, 0, 10) // wrong file
	if len(recs) != 0 {
		t.Errorf("Covering of wrong file = %+v", recs)
	}
}

// Covering a range that spans several servers with interior gaps: only the
// stored segments come back (in offset order), and the contacted-server set
// covers every partition of the query, empty ones included — the caller
// charges a round trip per contacted server, gap or not.
func TestRingCoveringMultiServerWithGaps(t *testing.T) {
	r := newTestRing(3, 100)
	// Partitions 0..5 map to servers 0,1,2,0,1,2. Populate partitions 0, 2,
	// and 5; leave 1, 3, 4 as gaps.
	r.put(rec(1, 10, 40, 0))  // partition 0, server 0
	r.put(rec(1, 220, 30, 1)) // partition 2, server 2
	r.put(rec(1, 550, 20, 2)) // partition 5, server 2
	recs, servers := r.cover(t, 1, 0, 600)
	if len(recs) != 3 || recs[0].Offset != 10 || recs[1].Offset != 220 || recs[2].Offset != 550 {
		t.Fatalf("Covering = %+v, want the 3 stored segments in order", recs)
	}
	if len(servers) != 3 {
		t.Errorf("servers = %v, want all 3 servers of the 6-partition span", servers)
	}
	for i := 1; i < len(servers); i++ {
		if servers[i-1] >= servers[i] {
			t.Errorf("servers %v not strictly ascending", servers)
		}
	}
	// A sub-query covering only empty partitions returns nothing but still
	// reports the servers it had to ask.
	recs, servers = r.cover(t, 1, 300, 200) // partitions 3 and 4
	if len(recs) != 0 {
		t.Errorf("gap query returned %+v", recs)
	}
	if len(servers) != 2 {
		t.Errorf("gap query contacted %v, want the 2 owning servers", servers)
	}
}

// Delete is by exact key: deleting an offset that is covered by a
// straddling record (whose key lives one partition back, on a different
// server) must NOT remove the straddler — only its exact key deletes.
func TestRingDeleteNonHomeKey(t *testing.T) {
	r := newTestRing(3, 100)
	r.put(rec(1, 90, 50, 1)) // key 90 on server 0; bytes extend into partition 1
	if r.del(t, 1, 120) {    // offset 120's home is server 1, no key there
		t.Error("Delete(120) removed something")
	}
	if recs, _ := r.cover(t, 1, 100, 40); len(recs) != 1 || recs[0].Offset != 90 {
		t.Fatalf("straddler gone after non-home delete: %+v", recs)
	}
	if !r.del(t, 1, 90) {
		t.Error("Delete of the exact key failed")
	}
	if recs, _ := r.cover(t, 1, 100, 40); len(recs) != 0 {
		t.Errorf("straddler survived exact-key delete: %+v", recs)
	}
}

// Put of the same (fid, offset) key is an in-place overwrite, however many
// times it happens: the count stays 1, the latest payload wins, and the
// covering resolves the latest size.
func TestRingPutOverwriteAcrossRewrites(t *testing.T) {
	r := newTestRing(4, 100)
	r.put(rec(1, 250, 30, 0))
	for i := 1; i <= 5; i++ {
		size := int64(30 + i) // grow within the partition bound
		r.put(rec(1, 250, size, i))
		if r.one.Len() != 1 || r.stores[r.home(250)].Len() != 1 {
			t.Fatalf("rewrite %d: %d records, want 1", i, r.one.Len())
		}
		got, ok := r.one.Get(meta.Key{FID: 1, Offset: 250})
		if !ok || got.Proc != i || got.Size != size {
			t.Fatalf("rewrite %d: Get = %+v, %v", i, got, ok)
		}
	}
	recs, _ := r.cover(t, 1, 280, 10) // only the grown record reaches 280+
	if len(recs) != 1 || recs[0].Size != 35 || recs[0].Proc != 5 {
		t.Errorf("Covering after rewrites = %+v, want the final 35-byte record", recs)
	}
}

// Property: for random non-overlapping segment layouts, Covering returns
// exactly the segments overlapping the query (validated against a brute
// force scan), provided segments don't exceed the partition range size.
func TestRingCoveringProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rangeSize := int64(rng.Intn(90) + 10)
		r := newTestRing(rng.Intn(5)+1, rangeSize)
		var all []meta.Record
		cur := int64(rng.Intn(20))
		for i := 0; i < 50; i++ {
			size := int64(rng.Intn(int(rangeSize))) + 1
			rc := rec(1, cur, size, i)
			r.put(rc)
			all = append(all, rc)
			cur += size + int64(rng.Intn(15)) // optional gap
		}
		for q := 0; q < 20; q++ {
			qOff := int64(rng.Intn(int(cur + 10)))
			qSize := int64(rng.Intn(200) + 1)
			got, _ := r.cover(t, 1, qOff, qSize)
			var want []meta.Record
			for _, rc := range all {
				if rc.Offset < qOff+qSize && rc.Offset+rc.Size > qOff {
					want = append(want, rc)
				}
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// coverRangeReference is the covering scan as it was written with a
// per-call set of the keys already collected: a Floor at every partition
// start, a scan of every partition, and the record straddling in from the
// partition before the range, sorted at the end. It is the oracle that the
// one-pass CoverRange must reproduce record for record, partition for
// partition: the partitions ascending, then the straddler's index if it is
// not among them.
func coverRangeReference(fid meta.FileID, offset, size, rangeSize int64,
	at func(offset int64) (int, *Store)) (recs []meta.Record, parts []int) {
	if size <= 0 {
		return nil, nil
	}
	end := offset + size
	seen := map[meta.Key]bool{}
	collect := func(rec meta.Record) {
		if !seen[rec.Key()] {
			seen[rec.Key()] = true
			recs = append(recs, rec)
		}
	}
	for off := offset; off < end; {
		partEnd := min((off/rangeSize+1)*rangeSize, end)
		idx, st := at(off)
		parts = append(parts, idx)
		if prev, ok := st.Floor(meta.Key{FID: fid, Offset: off}); ok &&
			prev.FID == fid && prev.Offset+prev.Size > off {
			collect(prev)
		}
		st.Scan(meta.Key{FID: fid, Offset: off}, meta.Key{FID: fid, Offset: partEnd},
			func(rec meta.Record) bool {
				if rec.Offset+rec.Size > offset && rec.Offset < end {
					collect(rec)
				}
				return true
			})
		off = partEnd
	}
	slices.Sort(parts)
	parts = slices.Compact(parts)
	if partStart := (offset / rangeSize) * rangeSize; partStart > 0 {
		idx, st := at(partStart - 1)
		if prev, ok := st.Floor(meta.Key{FID: fid, Offset: partStart - 1}); ok &&
			prev.FID == fid && prev.Offset+prev.Size > offset && !seen[prev.Key()] {
			recs = append(recs, prev)
			if !slices.Contains(parts, idx) {
				parts = append(parts, idx)
			}
		}
	}
	slices.SortFunc(recs, func(a, b meta.Record) int { return cmp.Compare(a.Offset, b.Offset) })
	return recs, parts
}

// randomCoverings calls check on 300 random rings of 1–5 servers with
// random partition sizes, each holding two files of records (touching,
// overlapping and gapped, up to one partition long), 20 queries each.
func randomCoverings(check func(r *testRing, fid meta.FileID, off, size int64)) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		rangeSize := int64(rng.Intn(90) + 10)
		r := newTestRing(rng.Intn(5)+1, rangeSize)
		for fid := meta.FileID(1); fid <= 2; fid++ {
			for cur, i := int64(rng.Intn(20)), 0; i < 40; i++ {
				rc := rec(fid, cur, int64(rng.Intn(int(rangeSize)))+1, i)
				r.put(rc)
				cur += int64(rng.Intn(int(rangeSize))) - rangeSize/4 // overlaps, touches or gaps
				cur = max(cur, rc.Offset+1)
			}
		}
		for q := 0; q < 20; q++ {
			fid := meta.FileID(1 + rng.Intn(2))
			check(r, fid, int64(rng.Intn(1500)), int64(rng.Intn(400))-20)
		}
	}
}

// CoverRange over one store per server, appending after existing entries
// of warm buffers, returns exactly what the set-based reference returns on
// random coverings. Warm calls allocate nothing, over one store per server
// or one store for all.
func TestCoverRangeMatchesSetReference(t *testing.T) {
	recHead, partHead := []meta.Record{rec(9, 1, 1, 0)}, []int{42}
	var recs []meta.Record
	var parts []int
	randomCoverings(func(r *testRing, fid meta.FileID, off, size int64) {
		want, wantParts := coverRangeReference(fid, off, size, r.rangeSize, r.perServer)
		recs, parts = CoverRange(append(recs[:0], recHead...), append(parts[:0], partHead...),
			fid, off, size, r.rangeSize, r.perServer)
		if !slices.Equal(recs[1:], want) || !slices.Equal(parts[1:], wantParts) ||
			recs[0] != recHead[0] || parts[0] != partHead[0] {
			t.Fatalf("CoverRange(%d, %d, %d) = %v %v, want %v %v",
				fid, off, size, recs[1:], parts[1:], want, wantParts)
		}
	})
	r := newTestRing(3, 64)
	for off := int64(0); off < 4096; off += 48 {
		r.put(rec(1, off, 50, 0))
	}
	if allocs := testing.AllocsPerRun(50, func() {
		recs, parts = CoverRange(recs[:0], parts[:0], 1, 100, 900, 64, r.perServer)
		recs, parts = CoverRange(recs[:0], parts[:0], 1, 100, 900, 64, r.at)
	}); allocs != 0 {
		t.Errorf("warm per-server and one-store CoverRange allocate %.1f objects/op, want 0", allocs)
	}
}

// The ring service keeps every server's partitions in one store. On random
// coverings, CoverRange over that store returns exactly what it returns
// over one store per server, records and indices in order: in particular
// the server of a record straddling in from the partition before, which
// one store returns as the head of the offset's own partition.
func TestCoverRangeOneStoreMatchesPerServer(t *testing.T) {
	randomCoverings(func(r *testRing, fid meta.FileID, off, size int64) {
		r.cover(t, fid, off, size)
	})
}

// A covering across several partitions into a nil buffer allocates one
// array, sized for what it collects, and into a warm buffer none.
func TestCoverRangeAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	r := newTestRing(3, 64)
	for off := int64(0); off < 4096; off += 16 {
		r.put(rec(1, off, 16, 0))
	}
	parts := make([]int, 0, 16)
	var recs []meta.Record
	if n := testing.AllocsPerRun(20, func() {
		recs, parts = CoverRange(nil, parts[:0], 1, 40, 1000, 64, r.at)
	}); n != 1 {
		t.Errorf("CoverRange into a nil buffer allocates %v times, want 1", n)
	}
	if len(recs) != 63 || len(parts) != 3 {
		t.Fatalf("CoverRange returned %d records from %d servers, want 63 from 3", len(recs), len(parts))
	}
	if n := testing.AllocsPerRun(20, func() {
		recs, parts = CoverRange(recs[:0], parts[:0], 1, 40, 1000, 64, r.at)
	}); n != 0 {
		t.Errorf("CoverRange into a warm buffer allocates %v times, want 0", n)
	}
}

// BenchmarkCoverRange times a warm covering of a file of 4,096 8-MiB
// records laid 3 MiB off the 16-MiB partition grid, in one store as the
// ring service keeps them: a 40-MiB read over 3 servers, which touches
// three partitions and finds a record straddling in from before the range.
func BenchmarkCoverRange(b *testing.B) {
	const seg, part, size = 8 << 20, 16 << 20, 40 << 20
	const off = 1000 * part
	r := newTestRing(3, part)
	for i := int64(0); i < 4096; i++ {
		r.put(rec(1, i*seg+3<<20, seg, 0))
	}
	recs, parts := CoverRange(nil, nil, 1, off, size, part, r.at)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, parts = CoverRange(recs[:0], parts[:0], 1, off, size, part, r.at)
	}
}
