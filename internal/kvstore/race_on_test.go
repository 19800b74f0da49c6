//go:build race

package kvstore

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
