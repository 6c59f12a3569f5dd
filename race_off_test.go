//go:build !race

package qsmt

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
