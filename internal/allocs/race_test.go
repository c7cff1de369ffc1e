//go:build race

package allocs

// raceEnabled reports whether the race detector is active; allocation-count
// tests skip under it because the detector's instrumentation allocates.
const raceEnabled = true
