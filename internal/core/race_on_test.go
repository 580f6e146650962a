//go:build race

package core

// raceEnabled reports that the race detector is active.
const raceEnabled = true
