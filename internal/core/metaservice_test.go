package core

import (
	"bytes"
	"reflect"
	"testing"

	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/topology"
)

// planeEnv is testEnv with the sharded metadata plane enabled.
func planeEnv(t *testing.T, shards, replicas int) (*mpi.World, *System) {
	return testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.MetaShards = shards
		cc.MetaReplicas = replicas
	})
}

// TestPlaneModeWriteReadRoundTrip runs the full write → close → read path
// with the metadata plane on (3 shards × 3 replicas): bytes round-trip
// exactly, every invariant (including the plane's committed-record ledger)
// holds at shutdown, and the op counters surface the traffic.
func TestPlaneModeWriteReadRoundTrip(t *testing.T) {
	w, sys := planeEnv(t, 3, 3)
	payload := bytes.Repeat([]byte("p"), int(2*mib))
	var got []byte
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		base := int64(c.Rank().Rank()) * 2 * mib
		if err := f.WriteAt(base, 2*mib, payload); err != nil {
			t.Errorf("write: %v", err)
		}
		f.Close()
		c.Rank().Barrier()
		// Open is collective: both ranks reopen, each reads the other's block.
		rf, err := c.Open("f", mpi.ReadOnly)
		if err != nil {
			t.Errorf("open read: %v", err)
			return
		}
		other := int64(1-c.Rank().Rank()) * 2 * mib
		data, err := rf.ReadAt(other, 2*mib)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if c.Rank().Rank() == 1 {
			got = data
		}
		rf.Close()
	})
	if !bytes.Equal(got, payload) {
		t.Error("read-back mismatch through the metadata plane")
	}
	if v := sys.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations in plane mode: %v", v)
	}
	if sys.Plane() == nil {
		t.Fatal("Plane() = nil with MetaShards set")
	}
	st := sys.Plane().Stats()
	if st.Shards != 3 || st.Replicas != 3 {
		t.Errorf("plane shape = %d×%d, want 3×3", st.Shards, st.Replicas)
	}
	if st.Puts == 0 {
		t.Error("plane served no puts despite the writes")
	}
	d := sys.MetaOpDetail()
	if d.Puts == 0 || d.Gets == 0 {
		t.Errorf("MetaOpDetail = %+v, want non-zero puts and gets", d)
	}
	var per int64
	for _, n := range d.PerServer {
		per += n
	}
	if per == 0 {
		t.Error("per-shard op counts all zero")
	}
	if sys.Stats().MetaOps == 0 {
		t.Error("Stats.MetaOps = 0 in plane mode")
	}
}

// TestPlaneModeDeleteAndRewrite exercises the mutation paths that commit
// through the WAL: an exact-key rewrite and a range delete, both of which
// must leave the coverage and ledger invariants intact.
func TestPlaneModeDeleteAndRewrite(t *testing.T) {
	w, sys := planeEnv(t, 2, 3)
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := int64(0); i < 4; i++ {
			if err := f.WriteAt(i*mib, 1*mib, nil); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		// Exact-key rewrite of segment 1.
		if err := f.WriteAt(1*mib, 1*mib, nil); err != nil {
			t.Errorf("rewrite: %v", err)
		}
		// Whole-segment delete of segment 2.
		if n, err := f.Delete(2*mib, 1*mib); err != nil || n != 1 {
			t.Errorf("delete = (%d, %v), want (1, nil)", n, err)
		}
		f.Close()
	})
	if v := sys.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations after rewrite+delete: %v", v)
	}
	d := sys.MetaOpDetail()
	if d.Deletes != 1 {
		t.Errorf("deletes = %d, want 1", d.Deletes)
	}
	if d.Puts != 5 {
		t.Errorf("puts = %d, want 5 (4 writes + 1 rewrite)", d.Puts)
	}
}

// TestMetaServiceModes runs one client sequence against both metaService
// implementations — a write, an exact-key rewrite, a range delete, a
// cross-node read that promotes the read segment (a re-point), and Stat —
// and pins the per-mode counters exactly. The modes differ on purpose:
// the ring charges one round trip per range delete and re-points for
// free, while the plane commits every deleted record and counts a
// re-point as a put. Both modes must end up holding the same records,
// which Segments reads back in offset order.
func TestMetaServiceModes(t *testing.T) {
	cases := []struct {
		name           string
		shards         int
		want           MetaOpDetail
		wantMetaOps    int64
		wantPlanePuts  int64
		wantPromotions int64
	}{
		// Per rank: 4 puts (3 writes + 1 rewrite), 1 delete, 2 lookups of
		// the other rank's range, 1 stat, 1 promotion. Each rank's range
		// has its own server (ring) or shard (plane).
		{
			name: "ring",
			want: MetaOpDetail{Puts: 8, Gets: 4, Coverings: 4, Deletes: 2, StatOps: 2,
				PerServer: []int64{7, 7}},
			// 8 puts + 4 lookups + 2 range deletes + 2 stats; deletes and
			// re-points are free.
			wantMetaOps:    16,
			wantPromotions: 2,
		},
		{
			name:   "plane-2x3",
			shards: 2,
			// The 2 re-points count as puts.
			want: MetaOpDetail{Puts: 10, Gets: 4, Coverings: 4, Deletes: 2, StatOps: 2,
				PerServer: []int64{8, 8}},
			// 10 puts + 4 lookups + 2 per-record deletes + 2 stats; the
			// range deletes themselves are free.
			wantMetaOps:    18,
			wantPlanePuts:  10,
			wantPromotions: 2,
		},
	}
	segments := map[string][]meta.Record{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, sys := testEnv(t, func(_ *topology.Config, cc *Config) {
				cc.MetaShards = tc.shards
				if tc.shards > 0 {
					cc.MetaReplicas = 3
				}
				cc.MetaRangeSize = 4 * mib // one metadata range per rank
				cc.FlushOnClose = false
				cc.ProactivePlacement = true
				cc.PromoteAfterReads = 2
				cc.DRAMLogBytes = 2 * mib
				cc.BBLogBytes = 4 * mib
				cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
			})
			payload := bytes.Repeat([]byte("m"), int(1*mib))
			runApp(t, w, sys, 2, 1, func(c *Client) {
				f, err := c.Open("f", mpi.WriteOnly)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				base := int64(c.Rank().Rank()) * 4 * mib
				// Two segments fill the DRAM log; the third lands on BB.
				for i := int64(0); i < 3; i++ {
					if err := f.WriteAt(base+i*mib, 1*mib, payload); err != nil {
						t.Errorf("write %d: %v", i, err)
					}
				}
				// Exact-key rewrite of the BB segment.
				if err := f.WriteAt(base+2*mib, 1*mib, payload); err != nil {
					t.Errorf("rewrite: %v", err)
				}
				// Deleting a DRAM segment frees room for the promotion.
				if n, err := f.Delete(base+1*mib, 1*mib); err != nil || n != 1 {
					t.Errorf("delete = (%d, %v), want (1, nil)", n, err)
				}
				c.Rank().Barrier()
				// Read the other node's BB segment until it is promoted.
				other := int64(1-c.Rank().Rank())*4*mib + 2*mib
				for i := 0; i < 2; i++ {
					if data, err := f.ReadAt(other, 1*mib); err != nil || !bytes.Equal(data, payload) {
						t.Errorf("read %d: wrong bytes (err %v)", i, err)
					}
				}
				c.Rank().Barrier()
				if fi, ok := c.Stat("f"); !ok || fi.Size != 7*mib {
					t.Errorf("Stat = (%+v, %v), want size 7 MiB", fi, ok)
				}
				f.Close()
			})
			if v := sys.CheckInvariants(); len(v) != 0 {
				t.Errorf("invariant violations: %v", v)
			}
			if got := sys.Stats().Promotions; got != tc.wantPromotions {
				t.Errorf("promotions = %d, want %d", got, tc.wantPromotions)
			}
			segments[tc.name] = sys.Segments("f")
			d := sys.MetaOpDetail()
			if !reflect.DeepEqual(d, tc.want) {
				t.Errorf("MetaOpDetail = %+v, want %+v", d, tc.want)
			}
			if got := sys.Stats().MetaOps; got != tc.wantMetaOps {
				t.Errorf("Stats.MetaOps = %d, want %d", got, tc.wantMetaOps)
			}
			if tc.shards == 0 {
				if sys.Plane() != nil {
					t.Fatal("ring mode must have no plane")
				}
				if ridx, ok := sys.MetaCrashLeader(0); ok || ridx != -1 {
					t.Errorf("MetaCrashLeader without a plane = (%d, %v), want (-1, false)", ridx, ok)
				}
				return
			}
			if sys.Plane() == nil {
				t.Fatal("plane mode must have a plane")
			}
			if got := sys.Plane().Stats().Puts; got != tc.wantPlanePuts {
				t.Errorf("plane puts = %d, want %d", got, tc.wantPlanePuts)
			}
		})
	}
	ring, plane := segments["ring"], segments["plane-2x3"]
	if len(ring) != 4 || !reflect.DeepEqual(ring, plane) {
		t.Errorf("Segments differ between modes:\nring  %+v\nplane %+v", ring, plane)
	}
}

// TestPlaneModeFollowerReadsAndOnlineSplit runs the write → close → read
// path with leased follower reads on and splits a shard online between the
// writes and the reads: bytes must round-trip exactly through the moved
// arcs, the ledger and lease invariants must hold, and the surfaced
// counters must show both the migration and the follower-served reads.
func TestPlaneModeFollowerReadsAndOnlineSplit(t *testing.T) {
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.MetaShards = 2
		cc.MetaReplicas = 3
		cc.MetaFollowerReads = true
		// One partition bucket per segment, so the records spread over the
		// hash circle and the split genuinely moves some of them.
		cc.MetaRangeSize = 1 * mib
	})
	payload := bytes.Repeat([]byte("q"), int(1*mib))
	split := -1
	runApp(t, w, sys, 2, 1, func(c *Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		base := int64(c.Rank().Rank()) * 4 * mib
		for i := int64(0); i < 4; i++ {
			if err := f.WriteAt(base+i*mib, 1*mib, payload); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		f.Close()
		c.Rank().Barrier()
		if c.Rank().Rank() == 0 {
			var ok bool
			split, ok = sys.MetaSplit()
			if !ok {
				t.Errorf("MetaSplit refused with a healthy plane")
			}
		}
		rf, err := c.Open("f", mpi.ReadOnly)
		if err != nil {
			t.Errorf("open read: %v", err)
			return
		}
		other := int64(1-c.Rank().Rank()) * 4 * mib
		for i := int64(0); i < 4; i++ {
			data, err := rf.ReadAt(other+i*mib, 1*mib)
			if err != nil {
				t.Errorf("read %d: %v", i, err)
			} else if !bytes.Equal(data, payload) {
				t.Errorf("read %d: wrong bytes through the mid-split plane", i)
			}
		}
		rf.Close()
	})
	if split != 2 {
		t.Errorf("MetaSplit minted shard %d, want 2", split)
	}
	if v := sys.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations after online split: %v", v)
	}
	st := sys.Plane().Stats()
	if st.Shards != 3 {
		t.Errorf("plane has %d shards after the split, want 3", st.Shards)
	}
	if st.Splits != 1 || st.SplitRecords == 0 || st.SplitBytes == 0 {
		t.Errorf("split migrated nothing: %+v", st)
	}
	if st.FollowerReads == 0 || st.LeaseGrants == 0 {
		t.Errorf("no leased follower read served: %+v", st)
	}
}

// TestLegacyModeMetaOpDetail: with the plane off, the same counters track
// the single logical ring, indexed by metadata server.
func TestLegacyModeMetaOpDetail(t *testing.T) {
	w, sys := testEnv(t, nil)
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := f.WriteAt(0, 1*mib, nil); err != nil {
			t.Errorf("write: %v", err)
		}
		f.Close()
	})
	if sys.Plane() != nil {
		t.Fatal("Plane() non-nil with MetaShards unset")
	}
	if d := sys.MetaOpDetail(); d.Puts != 1 {
		t.Errorf("legacy puts = %d, want 1", d.Puts)
	}
	if ridx, ok := sys.MetaCrashLeader(0); ok || ridx != -1 {
		t.Errorf("MetaCrashLeader without a plane = (%d, %v), want (-1, false)", ridx, ok)
	}
}

// TestConfigMetaValidation rejects contradictory metadata-service configs.
func TestConfigMetaValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MetaShards = -1 },
		func(c *Config) { c.MetaReplicas = -1 },
		func(c *Config) { c.MetaShards = 2; c.CentralMetadata = true },
		func(c *Config) { c.MetaReplicas = 3 },         // replicas without shards
		func(c *Config) { c.MetaFollowerReads = true }, // follower reads without shards
	}
	for i, mutate := range bad {
		cc := DefaultConfig()
		mutate(&cc)
		if err := cc.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a contradictory meta config", i)
		}
	}
	ok := DefaultConfig()
	ok.MetaShards = 4
	ok.MetaReplicas = 3
	ok.MetaFollowerReads = true
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plane config rejected: %v", err)
	}
}

// Fig. 3: the ring's home rule deals the MetaRangeSize ranges of a file's
// offsets round-robin to the servers, all kept in one store; under
// CentralMetadata every range homes on the one server. A range size that
// is not positive is a config error.
func TestRingHomeServerRoundRobin(t *testing.T) {
	_, sys := testEnv(t, nil) // 4 servers, 16-MiB ranges
	_, central := testEnv(t, func(_ *topology.Config, cc *Config) { cc.CentralMetadata = true })
	m, c := sys.meta.(*ringMeta), central.meta.(*ringMeta)
	for off := int64(0); off < 160*mib; off += 4 * mib {
		if srv, st := m.at(off); srv != int(off/(16*mib)%4) || st != m.store {
			t.Errorf("at(%d) = %d, want %d on the one store", off, srv, off/(16*mib)%4)
		}
		if srv, _ := c.at(off); srv != 0 {
			t.Errorf("central at(%d) = %d, want 0", off, srv)
		}
	}
	cc := DefaultConfig()
	cc.MetaRangeSize = 0
	if cc.Validate() == nil {
		t.Error("zero MetaRangeSize accepted")
	}
}

// Every record op is charged on its home server: six 1-MiB writes, one per
// 16-MiB range, charge two puts on servers 0 and 1 and one on servers 2 and
// 3, and the one store holds all six records.
func TestRingRoutesToHomeServers(t *testing.T) {
	w, sys := testEnv(t, func(_ *topology.Config, cc *Config) { cc.FlushOnClose = false })
	runApp(t, w, sys, 1, 1, func(c *Client) {
		f, err := c.Open("f", mpi.WriteOnly)
		if err != nil {
			t.Error(err)
			return
		}
		for i := int64(0); i < 6; i++ {
			if err := f.WriteAt(i*16*mib, mib, nil); err != nil {
				t.Error(err)
			}
		}
		f.Close()
	})
	if d := sys.MetaOpDetail(); d.Puts != 6 || !reflect.DeepEqual(d.PerServer, []int64{2, 2, 1, 1}) {
		t.Errorf("puts %d per server %v, want 6 as [2 2 1 1]", d.Puts, d.PerServer)
	}
	st := sys.meta.(*ringMeta).store
	if rec, ok := st.Get(meta.Key{FID: sys.files["f"].fid, Offset: 5 * 16 * mib}); st.Len() != 6 || !ok || rec.Size != mib {
		t.Errorf("store holds %d records, range 5's %+v %v; want 6, a 1-MiB record", st.Len(), rec, ok)
	}
}
