//go:build race

package logrec

// raceEnabled reports that the race detector is active.
const raceEnabled = true
