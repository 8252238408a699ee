//go:build race

package services

// raceEnabled: the race detector's instrumentation allocates on its own
// schedule, and sync.Pool drops items at random under it, so allocation
// counts are not meaningful under it.
const raceEnabled = true
