//go:build race

package trace

// raceEnabled: the race detector instruments allocation, so allocation
// counts under it are not the program's own.
const raceEnabled = true
