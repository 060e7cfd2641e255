//go:build race

package experiments

// raceEnabled reports that the race detector is on: the quick-scale golden
// takes seconds without it and far longer with it.
const raceEnabled = true
