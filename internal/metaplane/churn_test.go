package metaplane

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"univistor/internal/meta"
	"univistor/internal/sim"
)

// Membership-churn property test: 25 seeded op sequences interleave
// Put/Delete/Stat/CoveringLocal with online splits (StartSplit)
// against an exact in-memory oracle. After every step the plane must
// agree with the oracle on record existence and values, answer coverings
// exactly, and sweep CheckInvariants clean — including while a split is
// mid-transfer.
func TestMembershipChurnAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(2, int(seed%3)+1)
			cfg.FollowerReads = seed%2 == 1
			pl := mustPlane(t, cfg)
			oracle := map[meta.Key]meta.Record{}
			rng := rand.New(rand.NewSource(seed))
			splitsStarted := 0

			e := sim.NewEngine()
			e.Go("churn", func(p *sim.Proc) {
				for i := 0; i < 250; i++ {
					fid := meta.FileID(rng.Intn(3) + 1)
					off := int64(rng.Intn(96)) * 256
					k := meta.Key{FID: fid, Offset: off}
					switch c := rng.Intn(100); {
					case c < 45:
						r := rec(fid, off, 256)
						pl.Put(p, rng.Intn(cfg.Nodes), r)
						oracle[k] = r
					case c < 60:
						_, wantOK := oracle[k]
						existed, _ := pl.Delete(p, rng.Intn(cfg.Nodes), fid, off)
						if existed != wantOK {
							t.Fatalf("op %d: Delete existed=%v, oracle %v", i, existed, wantOK)
						}
						delete(oracle, k)
					case c < 75:
						got, ok := pl.Stat(p, rng.Intn(cfg.Nodes), fid, off)
						want, wantOK := oracle[k]
						if ok != wantOK || (ok && got != want) {
							t.Fatalf("op %d: Stat got %+v ok=%v, oracle %+v ok=%v",
								i, got, ok, want, wantOK)
						}
					case c < 85:
						qoff := int64(rng.Intn(100)) * 199
						qsize := int64(rng.Intn(2000) + 1)
						got, shards := pl.CoveringLocal(nil, nil, fid, qoff, qsize)
						want := oracleCovering(oracle, fid, qoff, qsize)
						for j := 1; j < len(shards); j++ {
							if shards[j-1] >= shards[j] {
								t.Fatalf("op %d: covering shards %v not ascending and distinct", i, shards)
							}
						}
						for at := qoff; at < qoff+qsize; at = (at/cfg.RangeSize + 1) * cfg.RangeSize {
							if s := pl.ShardFor(fid, at); !slices.Contains(shards, s) {
								t.Fatalf("op %d: covering shards %v miss shard %d of offset %d", i, shards, s, at)
							}
						}
						if len(got) != len(want) {
							t.Fatalf("op %d: covering fid=%d [%d,%d): got %d recs, want %d",
								i, fid, qoff, qoff+qsize, len(got), len(want))
						}
						for j := range got {
							if got[j] != want[j] {
								t.Fatalf("op %d: covering[%d] = %+v, want %+v", i, j, got[j], want[j])
							}
						}
					default:
						if _, active := pl.Splitting(); active {
							break // one split migrates at a time
						}
						if rng.Intn(3) < 2 && splitsStarted < 6 {
							if _, err := pl.StartSplit(e); err != nil {
								t.Fatalf("op %d: StartSplit: %v", i, err)
							}
							splitsStarted++
						}
					}
					if v := pl.CheckInvariants(); len(v) != 0 {
						t.Fatalf("op %d: invariant violations: %v", i, v)
					}
				}
			})
			e.Run()

			if _, active := pl.Splitting(); active {
				t.Fatalf("split still active after quiescence")
			}
			if pl.Total() != len(oracle) {
				t.Fatalf("plane holds %d records, oracle %d", pl.Total(), len(oracle))
			}
			for k, want := range oracle {
				got, ok := pl.GetLocal(k.FID, k.Offset)
				if !ok || got != want {
					t.Fatalf("record fid=%d off=%d: got %+v ok=%v, want %+v",
						k.FID, k.Offset, got, ok, want)
				}
			}
			if v := pl.CheckInvariants(); len(v) != 0 {
				t.Fatalf("final invariant violations: %v", v)
			}
		})
	}
}

// oracleCovering reproduces CoveringLocal's contract on the oracle map:
// all records of fid overlapping [off, off+size), ascending by key.
func oracleCovering(oracle map[meta.Key]meta.Record, fid meta.FileID, off, size int64) []meta.Record {
	var out []meta.Record
	for k, r := range oracle {
		if k.FID == fid && r.Offset+r.Size > off && r.Offset < off+size {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key().Less(out[j].Key()) })
	return out
}
