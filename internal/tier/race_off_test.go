//go:build !race

package tier

// raceEnabled reports whether the race detector is compiled in; allocation
// counts are skipped under -race because its instrumentation allocates.
const raceEnabled = false
