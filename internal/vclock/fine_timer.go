//go:build !(linux || freebsd || netbsd || openbsd || dragonfly || solaris)

package vclock

import "time"

// fineWait is zero where the system has no nanosleep (darwin, windows,
// wasm): a paced Run waits on the Go timer alone, as late as its wake.
const fineWait time.Duration = 0

// sleepFine is never called, since a wait longer than fineWait goes to
// the timer.
func sleepFine(time.Duration) {}
