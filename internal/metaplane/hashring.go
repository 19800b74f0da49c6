// Package metaplane is the distributed, replicated metadata plane: the
// record keyspace is sharded across N metadata shards by consistent
// hashing (virtual nodes, deterministic placement), and each shard is a
// replication group — a leader and R-1 followers kept consistent by a
// log-shipped WAL of metadata mutations, periodic snapshots with log
// truncation, and follower catch-up after a crash. The one membership
// change is an online split (split.go), which adds a shard. Every cost is charged on the simulation's
// virtual clock, so runs with equal seeds and specs are byte-identical.
//
// The plane replaces core's single logical metadata ring of §II-B3 when
// core.Config.MetaShards is positive; the legacy ring remains the default
// so the paper figures stay byte-identical.
package metaplane

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"univistor/internal/meta"
	"univistor/internal/sim"
)

// virtualNodes is the number of ring positions each shard owns.
// More virtual nodes smooth the key distribution at the cost of a larger
// lookup table; 64 keeps the imbalance across 8 shards under a few
// percent.
const virtualNodes = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the shard owning the arc that ends there.
type ringPoint struct {
	hash  uint64
	shard int
}

// HashRing maps 64-bit key hashes onto shards: a key belongs to the first
// virtual node at or clockwise after its hash. Placement is a pure
// function of (shard id, virtual-node index), so two rings built from the
// same membership are identical — no RNG, no insertion-order dependence.
type HashRing struct {
	points []ringPoint
}

// NewHashRing builds a ring of the given distinct shard ids.
func NewHashRing(shardIDs []int) *HashRing {
	r := &HashRing{}
	for _, id := range shardIDs {
		r.AddShard(id)
	}
	return r
}

// vnodeHash places virtual node j of a shard on the circle. The FNV sum
// of such short, near-sequential strings clusters on the circle, so a
// splitmix64 finalizer scatters it.
func vnodeHash(shard, j int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "metaplane/shard/%d/vnode/%d", shard, j)
	return sim.Mix64(h.Sum64())
}

// AddShard inserts the virtual nodes of a shard not yet on the ring.
func (r *HashRing) AddShard(id int) {
	for j := 0; j < virtualNodes; j++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(id, j), shard: id})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// Clone returns an independent deep copy of the ring.
func (r *HashRing) Clone() *HashRing {
	return &HashRing{points: append([]ringPoint(nil), r.points...)}
}

// Owner returns the shard owning the key hash: the first virtual node at
// or clockwise after it, wrapping to the lowest position.
func (r *HashRing) Owner(keyHash uint64) int {
	if len(r.points) == 0 {
		panic("metaplane: hash ring has no shards")
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= keyHash })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// KeyHash hashes one partition-range key (fid, rangeIdx) onto the circle.
// The plane cuts each file's offset space into fixed-size ranges (the same
// granularity as the legacy partitioner) and consistent-hashes the range,
// so a range's records always co-locate on one shard.
func KeyHash(fid meta.FileID, rangeIdx int64) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(fid))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(rangeIdx))
	h.Write(buf[:])
	return sim.Mix64(h.Sum64())
}
