//go:build race

package obs

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation measurements do not hold under it, and which slows
// single-goroutine work it has nothing to inform.
const raceEnabled = true
