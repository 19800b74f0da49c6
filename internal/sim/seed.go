package sim

// Mix64 is the SplitMix64 finalizer: a cheap bijective avalanche over the
// 64-bit space.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// StreamSeed derives the k-th RNG stream's seed (a rank's, a tenant's)
// from a run seed. The additive form `seed + k·γ` is collision-prone:
// (S, k) and (S+γ, k−1) land on the same seed, and mixing only the sum
// keeps that collision family since the mix is injective. Instead the run
// seed is finalized first and stream k derived from the mixed state (the
// SplitMix64 structure: state = mix(seed), stream k = mix(state + k·γ)), so
// shifting the seed by γ no longer aliases adjacent streams.
func StreamSeed(seed int64, k int) int64 {
	const golden = 0x9E3779B97F4A7C15
	return int64(Mix64(Mix64(uint64(seed)) + uint64(k)*golden))
}
