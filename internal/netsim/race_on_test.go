//go:build race

package netsim

// raceEnabled: under the race detector sync.Pool deliberately drops a
// share of Puts, so allocation counts are not meaningful.
const raceEnabled = true
