//go:build race

package translog

// raceEnabled scales the heaviest tests down under the race detector,
// which slows them tenfold.
const raceEnabled = true
