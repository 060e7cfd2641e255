//go:build race

package editdist

// raceEnabled reports that the race detector is on: sync.Pool then drops
// Puts at random, so allocation counts through the kernel pool do not hold.
const raceEnabled = true
