//go:build race

package metaplane

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
