//go:build race

package tier

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
