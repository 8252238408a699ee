//go:build linux || freebsd || netbsd || openbsd || dragonfly || solaris

package vclock

import (
	"syscall"
	"time"
)

// fineWait is how long before a deadline a paced Run stops waiting on the
// Go timer and sleeps the rest in one nanosleep. The runtime's timers wake
// through the netpoller, whose wait Linux takes in whole milliseconds, so
// a timer fires up to about 1 ms late; fineWait is just above that, so the
// timer's wake comes before the deadline, and the nanosleep, which the
// kernel ends within its timer slack (50 µs by default), ends the wait.
// It is the rounding's measure, not a knob.
const fineWait = 1200 * time.Microsecond

// sleepFine sleeps d on the calling thread. It may return early (EINTR):
// Run reads the wall clock again after it.
func sleepFine(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
