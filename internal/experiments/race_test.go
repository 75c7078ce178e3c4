//go:build race

package experiments

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation measurements do not hold under it.
const raceEnabled = true
