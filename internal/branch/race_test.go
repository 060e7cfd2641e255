//go:build race

package branch

// raceEnabled reports that the race detector is on: sync.Pool then drops
// Puts at random, so allocation counts through the scratch pool do not
// hold, and everything costs several times the memory.
const raceEnabled = true
