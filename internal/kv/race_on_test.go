//go:build race

package kv

// raceEnabled: the race detector's instrumentation allocates on its own
// schedule, so allocation counts are not meaningful under it.
const raceEnabled = true
