//go:build !race

package editdist

const raceEnabled = false
