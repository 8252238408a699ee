//go:build !race

package objstore

const raceEnabled = false
