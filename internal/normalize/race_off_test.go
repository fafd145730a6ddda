//go:build !race

package normalize

// raceEnabled reports whether the race detector instruments this build;
// the single-goroutine differential test runs a subset under it.
const raceEnabled = false
