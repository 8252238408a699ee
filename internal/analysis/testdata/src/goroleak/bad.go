//c4hvet:pkg cloud4home/internal/core
package fixture

import (
	"fmt"
	"sync/atomic"
)

// Fire-and-forget: nothing can join or cancel this goroutine.
func fireAndForget() {
	go func() { // want "neither a WaitGroup-style join nor a context/done-channel"
		fmt.Println("leaked")
	}()
}

// Capturing the loop variable: the dependence must be explicit (pass it
// as an argument or rebind it before the launch).
func capturesLoopVar(xs []int, results chan int) {
	for _, x := range xs {
		go func() {
			results <- x // want "goroutine captures loop variable x"
		}()
	}
}

type spinner struct{}

func (spinner) spin() {
	for i := 0; ; i++ {
		_ = i
	}
}

// A resolvable same-package method with no supervision signals.
func launchMethod() {
	var s spinner
	go s.spin() // want "neither a WaitGroup-style join nor a context/done-channel"
}

type gauge struct{ n atomic.Int64 }

// An atomic counter's Add right before the launch joins nothing: only a
// WaitGroup-style Add whose Done or Wait is visible counts.
func countedLaunch(g *gauge, work func()) {
	g.n.Add(1)
	go work() // want "no visible join or cancellation"
}

// The same for a resolvable body: the Add's receiver is never joined.
func countedMethodLaunch(g *gauge) {
	var s spinner
	g.n.Add(1)
	go s.spin() // want "neither a WaitGroup-style join nor a context/done-channel"
}

// Two structs share an exec field. The launch of loop's, bound to a
// method nothing joins, must not borrow the supervision of the later
// replier's binding (a send its joiner receives).
type loop struct {
	exec func()
}

func newLoop() *loop {
	l := &loop{}
	l.exec = l.spin
	return l
}

func (l *loop) spin() {
	for {
	}
}

func boundToUnjoined() {
	l := newLoop()
	go l.exec() // want "neither a WaitGroup-style join nor a context/done-channel"
}

type replier struct {
	done chan struct{}
	exec func()
}

func newReplier() *replier {
	r := &replier{done: make(chan struct{}, 1)}
	r.exec = r.reply
	return r
}

func (r *replier) reply() { r.done <- struct{}{} }

// A method named like replier's supervised reply, on another type: the
// launch runs this body, which nothing joins.
type echo struct{}

func (echo) reply() {}

func launchSameName() {
	var e echo
	go e.reply() // want "neither a WaitGroup-style join nor a context/done-channel"
}
