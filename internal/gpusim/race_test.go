//go:build race

package gpusim

// raceEnabled: the race detector's sync.Pool drops a random share of what
// it is given, so allocation counts are not a function of the program.
const raceEnabled = true
