//go:build !race

package metaplane

// raceEnabled reports whether the race detector is compiled in; allocation
// bounds are skipped under -race because its instrumentation allocates.
const raceEnabled = false
