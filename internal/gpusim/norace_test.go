//go:build !race

package gpusim

const raceEnabled = false
