package experiments

import (
	"fmt"
	"sync"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/netsim"
	"cloud4home/internal/policy"
	"cloud4home/internal/vclock"
)

// scenario is one simulated run, declared as data: every figure, table
// and ablation of the evaluation is a scenario, or a sweep of scenarios
// over what it varies. run owns what each experiment used to hand-roll:
// building the topology and entering its clock, opening and closing
// sessions, spawning clients at their start instants, replaying faults,
// joining, and keeping the first error.
type scenario struct {
	// name prefixes the errors the run's steps end with.
	name string

	// The topology: the paper testbed built from opts, unless nodes lists
	// a home to build by hand (seeded by opts.Seed, with the remote cloud
	// attached when one of the nodes is a cloud gateway), or city names a
	// city-scale overlay.
	opts  cluster.Options
	nodes []core.NodeConfig
	city  *cluster.CityOptions

	// setup runs first, on the driver: deploys, preloads, sessions the
	// clients share, and the whole workload of a sequential experiment.
	setup func(e *env)

	// clients concurrent actors run once setup returns. Client w opens
	// its own session on at(e, w) when that names a node, waits start(w),
	// then runs client. start defaults to w × 500 µs: clients runnable at
	// one instant would reach the network's RNG in host-scheduling order.
	clients int
	at      func(e *env, w int) *core.Node
	start   func(w int) time.Duration
	client  func(e *env, w int, sess *core.Session)

	// faults, when set, is replayed from the clients' start by one more
	// actor: a crash removes the node without a handover, a rejoin adds
	// the crashed netbook back, empty, through NetbookConfig.
	faults func(e *env) netsim.FaultSchedule

	// fold runs on the driver once every client has returned. Actors
	// setup left in the background are joined after it, so they move no
	// measured value.
	fold func(e *env)
}

// env is what a scenario's steps see: the built topology and the
// runner's helpers.
type env struct {
	// V and Home always; Cloud when the topology has one; Netbooks,
	// Desktop and NetbookConfig for the paper testbed only.
	*cluster.Testbed
	// nodes is every node in build order: the testbed's netbooks then its
	// desktop, a hand-built home's nodes, or a city's homes.
	nodes []*core.Node
	// start is the instant the clients were spawned.
	start time.Time
	// clients are the scenario's client and fault actors; background the
	// ones setup starts itself, joined after the fold.
	clients, background actors

	mu       sync.Mutex
	sessions []*core.Session // guarded by mu; closed when the run ends
}

// run builds the scenario's topology and drives it.
func (s scenario) run() error {
	e, err := s.build()
	if err != nil {
		return err
	}
	return s.drive(e)
}

// build makes the topology. A hand-built home gets only its clock here:
// its nodes join inside the run, on the clock the run measures.
func (s scenario) build() (*env, error) {
	switch {
	case s.city != nil:
		city, err := cluster.NewCity(*s.city)
		if err != nil {
			return nil, err
		}
		return &env{Testbed: &cluster.Testbed{V: city.V, Home: city.Home}, nodes: city.Nodes}, nil
	case s.nodes != nil:
		return &env{Testbed: &cluster.Testbed{V: vclock.NewVirtual(cluster.Epoch)}}, nil
	}
	tb, err := cluster.New(s.opts)
	if err != nil {
		return nil, err
	}
	return &env{Testbed: tb, nodes: tb.AllNodes()}, nil
}

// drive runs the scenario on e's clock as its one registered driver,
// then joins the background actors and closes every session.
func (s scenario) drive(e *env) error {
	var err error
	e.V.Run(func() {
		err = s.steps(e)
		if berr := e.background.join(e.V); err == nil {
			err = berr
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		for _, sess := range e.sessions {
			sess.Close()
		}
	})
	if err != nil && s.name != "" {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	return err
}

// steps runs everything but the background join: the hand-built home,
// setup, the clients and faults with their join, and the fold.
func (s scenario) steps(e *env) (err error) {
	defer catch(&err)
	if s.nodes != nil {
		e.Home = core.NewHome(e.V, core.HomeOptions{Seed: s.opts.Seed})
		for _, cfg := range s.nodes {
			if cfg.CloudGateway && e.Cloud == nil {
				e.Cloud = cloudsim.New(e.V, e.Home.Net())
				e.Home.AttachCloud(e.Cloud)
			}
			e.nodes = append(e.nodes, must(e.Home.AddNode(cfg)))
		}
	}
	if s.setup != nil {
		s.setup(e)
	}
	e.start = e.V.Now()
	if s.faults != nil {
		schedule := s.faults(e)
		e.clients.spawn(e.V, func() { check(netsim.RunFaults(e.V, schedule, e.apply)) })
	}
	at, start, client := s.at, s.start, s.client
	for w := 0; w < s.clients; w++ {
		e.clients.spawn(e.V, func() {
			var sess *core.Session
			if at != nil {
				if n := at(e, w); n != nil {
					sess = e.open(n)
				}
			}
			offset := time.Duration(w) * 500 * time.Microsecond
			if start != nil {
				offset = start(w)
			}
			e.V.Sleep(offset)
			client(e, w, sess)
		})
	}
	check(e.clients.join(e.V))
	if s.fold != nil {
		s.fold(e)
	}
	return nil
}

// apply plays one fault event against the testbed.
func (e *env) apply(ev netsim.FaultEvent) error {
	if ev.Kind == netsim.FaultCrash {
		return e.Home.RemoveNode(ev.Node, false)
	}
	for i, n := range e.Netbooks {
		if n.Addr() == ev.Node {
			_, err := e.Home.AddNode(e.NetbookConfig(i))
			return err
		}
	}
	return fmt.Errorf("rejoin %s: not a netbook of the testbed", ev.Node)
}

// open opens a session on n; the runner closes it when the run ends.
func (e *env) open(n *core.Node) *core.Session {
	sess := must(n.OpenSession())
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sessions = append(e.sessions, sess)
	return sess
}

// openEach opens one session on each node, in order.
func (e *env) openEach(nodes ...*core.Node) []*core.Session {
	out := make([]*core.Session, len(nodes))
	for i, n := range nodes {
		out[i] = e.open(n)
	}
	return out
}

// Store options most experiments use: a blocking store under the node's
// own policy, and one forced into the public cloud.
var (
	blocking = core.StoreOptions{Blocking: true}
	remote   = core.StoreOptions{Blocking: true, Policy: policy.SizeThreshold{RemoteBytes: 1}}
)

// put creates name and stores size synthetic bytes of it through sess.
func put(sess *core.Session, name, typ string, tags []string, size int64, opts core.StoreOptions) core.StoreResult {
	check(sess.CreateObject(name, typ, tags))
	return must(sess.StoreObject(name, nil, size, opts))
}

// stepError carries an error out of a scenario step. must and check panic
// with one; catch, which the runner defers on its driver and in every
// actor and every exported Run* defers, turns it back into an error, so
// none leaves the package as a panic. Any other panic is a bug and is
// re-raised. A step therefore reads as the experiment's procedure: the
// first failure ends it, and the run reports that error.
type stepError struct{ err error }

// must returns v, or ends the step with err.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check ends the step with err, if there is one.
func check(err error) {
	if err != nil {
		panic(stepError{err})
	}
}

// catch, deferred, turns the panic of a failed step into *err.
func catch(err *error) {
	if r := recover(); r != nil {
		se, ok := r.(stepError)
		if !ok {
			panic(r)
		}
		*err = se.err
	}
}

// caught runs an actor's fn and returns the error a failed step ended
// it with.
func caught(fn func()) (err error) {
	defer catch(&err)
	fn()
	return nil
}

// actors is a set of registered clock workers that join waits for on an
// Event, which the last of them fires while it is still registered —
// the join Node.Flush makes. A join through Virtual.Block and a
// WaitGroup lets the clock advance between the last Done and the
// waiter's return, so two workers would run in host-scheduling order.
type actors struct {
	mu   sync.Mutex
	left int           // guarded by mu; actors still running
	done *vclock.Event // guarded by mu; made by a waiting join
	err  error         // guarded by mu; the first error an actor ended with
}

// spawn runs fn as a registered worker on v.
func (a *actors) spawn(v *vclock.Virtual, fn func()) {
	a.mu.Lock()
	a.left++
	a.mu.Unlock()
	v.Go(func() {
		err := caught(fn)
		a.mu.Lock()
		if a.err == nil {
			a.err = err
		}
		a.left--
		var done *vclock.Event
		if a.left == 0 {
			done, a.done = a.done, nil
		}
		a.mu.Unlock()
		if done != nil {
			done.Fire()
		}
	})
}

// join parks the caller on v until every spawned actor has returned and
// reports the first error. With none running it returns without
// yielding the clock.
func (a *actors) join(v *vclock.Virtual) error {
	a.mu.Lock()
	var done *vclock.Event
	if a.left > 0 {
		a.done = v.NewEvent()
		done = a.done
	}
	a.mu.Unlock()
	if done != nil {
		done.Wait()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// jobQueue hands out job indices [next, limit) to concurrent clients.
// Which client takes which index varies with scheduling, but every index
// is dispatched exactly once and results land in indexed slots.
type jobQueue struct {
	limit int
	mu    sync.Mutex
	next  int // guarded by mu; the next undispatched index
}

// take returns the next index, or false when the queue is drained.
func (q *jobQueue) take() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.next >= q.limit {
		return 0, false
	}
	i := q.next
	q.next++
	return i, true
}
