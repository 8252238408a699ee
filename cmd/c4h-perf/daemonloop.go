//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"cloud4home/internal/daemon"
)

const (
	loopRounds   = 100 // per connection, at scale 1
	loopConns    = 2
	loopPreload  = 20
	loopPayload  = 16 << 10
	loopDesktop  = "desktop:9000"
	dialTimeout  = 2 * time.Second
	readyTimeout = 20 * time.Second
	// loopPause is a client's think time between ops. c4hd's op mutex is
	// not fair: a client that re-sends within microseconds of its reply
	// overtakes the connection already waiting, two back-to-back clients
	// are served AABB, and each sees its latency alternate between one
	// and three service times, half and half, which puts the median on
	// the gap between them. With the pause the waiting connection is
	// served next and every op waits for exactly one op of the other. It
	// costs no throughput: the daemon is busy with the other
	// connection's op meanwhile.
	loopPause = time.Millisecond
	// statsEvery is how often the traced run's extra connection asks for
	// Stats while the others work, for the busy round trip.
	statsEvery = 25 * time.Millisecond
)

// loopInputs is what the seed generates for daemon-loopback.
type loopInputs struct {
	bin     string     // the built c4hd
	preload [][]byte   // objects stored on the desktop in set-up
	fresh   [][][]byte // per connection, per round: the payload to store
	pick    [][]int    // per connection, per round: which preloaded object to fetch
}

// children holds every c4hd this process has spawned and not yet reaped,
// so a signal or a panic on the way out can still kill them.
var children = struct {
	sync.Mutex
	m map[*exec.Cmd]bool
}{m: map[*exec.Cmd]bool{}}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for cmd := range children.m {
		cmd.Process.Kill()
	}
}

// moduleRoot finds the directory holding go.mod, from the working
// directory upwards: the repository root under `go run`, two levels up
// under `go test`.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

func prepareDaemonLoopback(seed int64, scale float64) (func() (testbed, error), error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	in := &loopInputs{bin: filepath.Join(root, ".bench_build", "c4hd")}
	build := exec.Command("go", "build", "-o", in.bin, "./cmd/c4hd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build c4hd: %v\n%s", err, out)
	}
	rng := rand.New(rand.NewSource(seed))
	payload := func() []byte {
		b := make([]byte, loopPayload)
		rng.Read(b)
		return b
	}
	for i := 0; i < loopPreload; i++ {
		in.preload = append(in.preload, payload())
	}
	rounds := scaled(loopRounds, scale, 3)
	in.fresh = make([][][]byte, loopConns)
	in.pick = make([][]int, loopConns)
	for c := 0; c < loopConns; c++ {
		for i := 0; i < rounds; i++ {
			in.fresh[c] = append(in.fresh[c], payload())
			in.pick[c] = append(in.pick[c], rng.Intn(loopPreload))
		}
	}
	return func() (testbed, error) { return setupDaemonLoopback(in) }, nil
}

// daemonLoopback is the only path through command framing, daemon
// dispatch and JSON on the real clock: a spawned c4hd and TCP clients.
type daemonLoopback struct {
	*loopInputs
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{}
}

func preloadName(i int) string { return fmt.Sprintf("pre/%02d.bin", i) }

func setupDaemonLoopback(in *loopInputs) (testbed, error) {
	// A free port: bind one, note it, release it for the child.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &daemonLoopback{loopInputs: in, addr: addr, exited: make(chan struct{})}
	d.cmd = exec.Command(in.bin, "-listen", addr, "-netbooks", "3", "-seed", strconv.Itoa(testbedSeed))
	d.cmd.Stderr = &d.stderr
	// If the harness dies without running its exit paths, the kernel
	// still takes the child down.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn c4hd: %w", err)
	}
	children.Lock()
	children.m[d.cmd] = true
	children.Unlock()
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()

	// Ready means it answers a dial, not that some time has passed.
	var cl *daemon.Client
	deadline := time.Now().Add(readyTimeout)
	for {
		if cl, err = daemon.Dial(addr, dialTimeout); err == nil {
			break
		}
		select {
		case <-d.exited:
			d.close()
			return nil, fmt.Errorf("c4hd exited before it listened: %s", d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("c4hd not ready after %v: %w", readyTimeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer cl.Close()
	for i, p := range in.preload {
		if _, err := cl.Store(preloadName(i), "bin", p, 0, loopDesktop); err != nil {
			d.close()
			return nil, fmt.Errorf("preload %s: %w", preloadName(i), err)
		}
	}
	return d, nil
}

// close kills the child and reaps it. c4hd keeps its objects in memory,
// so there is nothing a graceful shutdown would save, and its own
// SIGTERM path waits out a monitor period.
func (d *daemonLoopback) close() {
	d.cmd.Process.Kill()
	<-d.exited
	children.Lock()
	delete(children.m, d.cmd)
	children.Unlock()
}

func (d *daemonLoopback) env() *probeEnv { return nil }

// loopConn drives one connection. A dial or RPC error is a failed op and
// a fresh dial for the next one, never the end of the run.
type loopConn struct {
	addr string
	cl   *daemon.Client
}

func (c *loopConn) client() (*daemon.Client, error) {
	if c.cl == nil {
		cl, err := daemon.Dial(c.addr, dialTimeout)
		if err != nil {
			return nil, err
		}
		c.cl = cl
	}
	return c.cl, nil
}

func (c *loopConn) drop() {
	if c.cl != nil {
		c.cl.Close()
		c.cl = nil
	}
}

// loopStats is what one connection's loop measured.
type loopStats struct {
	attempted, failed int
	reads, writes     []float64 // wall ms
	statsRTT          []float64 // µs
	overhead          []float64 // client wall minus server-reported total, ms
	payloadBytes      int64
	violations        []string
}

// The connections run their script one kind of op at a time, all of them
// through the same kind at once. c4hd serves one op at a time, so a
// connection's latency is its own op plus the other connection's op ahead
// of it. With every connection on the same kind that sum has one
// distribution per kind; a store/fetch/fetch/stats round on each
// connection lets the two drift against each other, and every run then
// has its own mixture of sums.
var loopKinds = []string{"store", "fetch-own", "fetch", "stats"}

// loopDriver runs script c through a session on the given netbook; its
// stores are named under that netbook, so two drivers of one script on
// different netbooks never share a name.
type loopDriver struct {
	d          *daemonLoopback
	c, netbook int
	node       string
	conn       loopConn
	st         loopStats
	m          *meter // nil off the measured phase
	rec        *recorder
}

func (d *daemonLoopback) driver(c, netbook int, m *meter, rec *recorder) *loopDriver {
	return &loopDriver{d: d, c: c, netbook: netbook, node: fmt.Sprintf("netbook-%d:9000", netbook),
		conn: loopConn{addr: d.addr}, m: m, rec: rec}
}

// op times one RPC; fn returns the total the server reported, if any.
func (l *loopDriver) op(kind string, i int, fn func(cl *daemon.Client) (time.Duration, error)) (time.Duration, bool) {
	l.st.attempted++
	sp := l.rec.begin(kind, l.c, i, 0)
	t0 := time.Now()
	cl, err := l.conn.client()
	var server time.Duration
	if err == nil {
		server, err = fn(cl)
	}
	wall := time.Since(t0)
	l.rec.end(sp, 0)
	if l.m != nil {
		l.m.tick()
	}
	if err != nil {
		l.st.failed++
		l.conn.drop()
		return wall, false
	}
	if server > 0 {
		l.st.overhead = append(l.st.overhead, ms(wall-server))
	}
	return wall, true
}

func (l *loopDriver) fetch(kind string, i int, name string, want []byte) (time.Duration, bool) {
	var got []byte
	wall, ok := l.op(kind, i, func(cl *daemon.Client) (time.Duration, error) {
		res, err := cl.Fetch(name, l.node)
		got = res.Data
		return res.Total, err
	})
	if ok {
		l.st.payloadBytes += int64(len(got))
		if !bytes.Equal(got, want) && len(l.st.violations) < maxViolations {
			l.st.violations = append(l.st.violations, fmt.Sprintf("fetch %s over %s: bytes differ from what was stored", name, l.node))
		}
	}
	return wall, ok
}

// run issues the first n ops of one kind from the script.
func (l *loopDriver) run(kind string, n int) {
	st, d := &l.st, l.d
	for i := 0; i < n; i++ {
		time.Sleep(loopPause)
		name, payload := fmt.Sprintf("d/%d/%d.bin", l.netbook, i), d.fresh[l.c][i]
		switch kind {
		case "store":
			if wall, ok := l.op(kind, i, func(cl *daemon.Client) (time.Duration, error) {
				res, err := cl.Store(name, "bin", payload, 0, l.node)
				return res.Total, err
			}); ok {
				st.writes = append(st.writes, ms(wall))
				st.payloadBytes += int64(len(payload))
			}
		case "fetch-own", "fetch":
			// Both kinds of fetch are one pool of reads: the read-back of
			// the connection's own store, which is local to its netbook,
			// and a preloaded object from the desktop.
			want := payload
			if kind == "fetch" {
				k := d.pick[l.c][i]
				name, want = preloadName(k), d.preload[k]
			}
			if wall, ok := l.fetch(kind, i, name, want); ok {
				st.reads = append(st.reads, ms(wall))
			}
		case "stats":
			if wall, ok := l.op(kind, i, func(cl *daemon.Client) (time.Duration, error) {
				_, err := cl.Stats()
				return 0, err
			}); ok {
				st.statsRTT = append(st.statsRTT, float64(wall)/float64(time.Microsecond))
			}
		}
	}
}

// busyStats asks for Stats on a connection of its own every statsEvery
// until stop closes, and returns the round trips in µs: what a Stats costs
// while the daemon is busy with other connections' ops.
func (d *daemonLoopback) busyStats(stop <-chan struct{}) []float64 {
	conn := loopConn{addr: d.addr}
	defer conn.drop()
	var rtts []float64
	tick := time.NewTicker(statsEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return rtts
		case <-tick.C:
		}
		cl, err := conn.client()
		if err != nil {
			continue
		}
		t0 := time.Now()
		if _, err := cl.Stats(); err != nil {
			conn.drop()
			continue
		}
		rtts = append(rtts, float64(time.Since(t0))/float64(time.Microsecond))
	}
}

// drive runs the first n ops of every kind on the drivers, kind by kind.
func drive(drivers []*loopDriver, n int) {
	for _, kind := range loopKinds {
		var wg sync.WaitGroup
		for _, l := range drivers {
			wg.Add(1)
			go func(l *loopDriver, kind string) {
				defer wg.Done()
				l.run(kind, n)
			}(l, kind)
		}
		wg.Wait()
	}
	for _, l := range drivers {
		l.conn.drop()
	}
}

func (d *daemonLoopback) run(m *meter, rec *recorder) (*phase, error) {
	rounds := len(d.fresh[0])
	ph := &phase{layer: map[string]float64{}}
	traced := rec != nil
	rec.open(loopConns, len(loopKinds)*rounds)

	pid := d.cmd.Process.Pid
	cpu0 := procCPU(pid)
	drivers := make([]*loopDriver, loopConns)
	for c := range drivers {
		drivers[c] = d.driver(c, c+1, m, rec)
	}
	var busy []float64
	var probe sync.WaitGroup
	stop := make(chan struct{})
	if traced {
		probe.Add(1)
		go func() {
			defer probe.Done()
			busy = d.busyStats(stop)
		}()
	}
	// One segment: the kinds run at different rates, so the meter's
	// quartile of segment rates would pick a kind, not the phase.
	m.start(loopConns*rounds*len(loopKinds), 1)
	drive(drivers, rounds)
	m.stop()
	close(stop)
	probe.Wait()
	ph.layer["daemon.stats_rtt_us_p50_busy"] = median(busy)
	ph.clientElapsed = m.cost.elapsed
	ph.child = &childCost{cpu: procCPU(pid) - cpu0, peakRSSMB: peakRSSMB(strconv.Itoa(pid))}

	var rtts, overhead []float64
	for _, l := range drivers {
		st := l.st
		ph.attempted += st.attempted
		ph.failed += st.failed
		ph.reads = append(ph.reads, st.reads...)
		ph.writes = append(ph.writes, st.writes...)
		ph.payloadBytes += st.payloadBytes
		rtts = append(rtts, st.statsRTT...)
		overhead = append(overhead, st.overhead...)
		for _, v := range st.violations {
			ph.violate("%s", v)
		}
	}
	ph.layer["daemon.stats_rtt_us_p50_idle"] = median(rtts)
	ph.layer["daemon.overhead_ms_mean"] = mean(overhead)

	// Connection speed-up: half of connection 0's script again, alone and
	// on the third netbook, against the two-connection rate just measured.
	if traced {
		t0 := time.Now()
		solo := d.driver(0, 3, nil, nil)
		drive([]*loopDriver{solo}, (rounds+1)/2)
		one := ratio(float64(solo.st.attempted-solo.st.failed), time.Since(t0).Seconds())
		two := ratio(float64(ph.attempted-ph.failed), m.cost.elapsed.Seconds())
		ph.layer["daemon.conn_speedup"] = ratio(two, one)
		ph.attempted += solo.st.attempted
		ph.failed += solo.st.failed
	}
	select {
	case <-d.exited:
		return nil, fmt.Errorf("c4hd exited during the run: %s", d.stderr.String())
	default:
	}
	return ph, nil
}
