//go:build !race

package bench

// raceEnabled reports whether the race detector is compiled in; the
// paper-scale reproduction is skipped under -race, which slows it 12–20×.
const raceEnabled = false
