//go:build race

package trace

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
