//go:build !race

package command

const raceEnabled = false
