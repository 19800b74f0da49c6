//go:build !race

package trace

// raceEnabled reports whether the race detector is compiled in; allocation
// bounds are skipped under -race because its instrumentation allocates.
const raceEnabled = false
