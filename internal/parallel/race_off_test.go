//go:build !race

package parallel

const raceEnabled = false
