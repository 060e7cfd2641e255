//go:build race

package search

// raceEnabled reports that the race detector is on: sync.Pool then drops
// Puts at random, so allocation counts through the pools do not hold.
const raceEnabled = true
