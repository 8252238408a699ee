//c4hvet:pkg cloud4home/internal/core
package fixture

import "sync"

// WaitGroup join plus rebinding before the launch: the seed's idiom
// (cmd/c4h-trace, daemon.Serve).
func joined(xs []int, results chan int) {
	var wg sync.WaitGroup
	for _, x := range xs {
		x := x
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- x
		}()
	}
	wg.Wait()
}

// Passing the loop variable as an argument also severs the capture.
func passedAsArg(xs []int, results chan int) {
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			results <- v
		}(x)
	}
	wg.Wait()
}

// A done/stop channel makes the goroutine cancellable (monitor.Start).
func cancellable(stop chan struct{}) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
	}()
	return done
}

// A named closure launch resolves to its body (core.Node.spawn).
func namedClosure(stop chan struct{}) {
	loop := func() {
		<-stop
	}
	go loop()
}

// Sending the result over a channel lets the launcher observe the exit
// (cmd/c4hd's errCh pattern).
func resultChannel(f func() error) error {
	errCh := make(chan error, 1)
	go func() { errCh <- f() }()
	return <-errCh
}

// An Add whose Wait is in the launching function joins a launch the
// checker cannot resolve.
func addThenWait(work func(*sync.WaitGroup)) {
	var wg sync.WaitGroup
	wg.Add(1)
	go work(&wg)
	wg.Wait()
}

// A func field bound once to a method resolves to that method's body,
// here a send its joiner receives (core's kernelRun).
type run struct {
	done chan struct{}
	exec func()
}

func newRun() *run {
	r := &run{done: make(chan struct{}, 1)}
	r.exec = r.work
	return r
}

func (r *run) work() { r.done <- struct{}{} }

func boundMethod() {
	r := newRun()
	go r.exec()
	<-r.done
}

// The same field name on a later struct, bound to a method with no
// supervision, does not make run's launch above unsupervised.
type idler struct {
	exec func()
}

func newIdler() *idler {
	i := &idler{}
	i.exec = i.idle
	return i
}

func (i *idler) idle() {}
