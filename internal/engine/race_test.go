//go:build race

package engine

// raceEnabled reports whether the tests run under the race detector, whose
// runtime allocates on its own account.
const raceEnabled = true
