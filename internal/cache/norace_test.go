//go:build !race

package cache

// raceEnabled reports whether the race detector is active. Under it
// sync.Pool drops a random share of what it is given, so storage reuse
// can only be asserted without it.
const raceEnabled = false
