//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// testbed is one built-and-preloaded instance of a workload.
type testbed interface {
	// run executes the measured phase, ticking m once per completed op.
	// rec is nil on untraced runs.
	run(m *meter, rec *recorder) (*phase, error)
	// env hands the layer probes the workload's own home cloud.
	env() *probeEnv
	close()
}

// workload is a named, fixed set of inputs.
type workload struct {
	name string
	why  string
	// setups is how often set-up repeats so setup_s is a median.
	setups int
	// prepare generates the inputs from the seed and returns the set-up
	// that setup_s times: building the testbed and preloading it. scale
	// multiplies the op counts; 1 is the size BENCHMARK.json's
	// run_seconds was calibrated for at seed state.
	prepare func(seed int64, scale float64) (setup func() (testbed, error), err error)
}

// phase is what one measured phase produced.
type phase struct {
	mu sync.Mutex // guards violations while clients run

	attempted, failed int
	// reads and writes are per-op latencies on the clients' clock, ms.
	reads, writes []float64
	// payloadBytes is what the clients stored plus fetched;
	// clientElapsed is the phase's length on their clock.
	payloadBytes  int64
	clientElapsed time.Duration
	// digest covers the ordered per-op virtual latencies and result
	// fields; empty on daemon-loopback, whose clock is real.
	digest string
	// violations are failed output checks (payload, kernel, Σ phases ≤
	// Total), capped.
	violations []string
	// layer holds the per-layer counters this phase read.
	layer map[string]float64
	// child is set when the system under test is another process, whose
	// CPU time and peak RSS then replace the harness's own.
	child *childCost
}

type childCost struct {
	cpu       time.Duration
	peakRSSMB float64
}

const maxViolations = 8

func (p *phase) violate(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.violations) < maxViolations {
		p.violations = append(p.violations, fmt.Sprintf(format, args...))
	}
}

// meter measures the host cost of a phase. Throughput is the upper
// quartile of the rates of equal-count segments: on a shared sandbox
// interference only ever slows a segment down, so the faster segments are
// the ones nearest the code's own speed, and a noisy few seconds do not
// move the result.
type meter struct {
	mu    sync.Mutex
	every int
	n     int
	marks []time.Time

	t0   time.Time
	mem0 runtime.MemStats
	cpu0 time.Duration
	cost hostCost // set by stop
}

// meterSegments is how many equal-count segments a phase is cut into.
const meterSegments = 20

// start opens the measured phase of expectedOps ops, cut into segments
// equal-count segments.
func (m *meter) start(expectedOps, segments int) {
	m.every = expectedOps / segments
	if m.every < 1 {
		m.every = 1
	}
	m.n = 0
	runtime.GC()
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = selfCPU()
	m.t0 = time.Now()
	m.marks = append(m.marks[:0], m.t0)
}

// tick records one completed op.
func (m *meter) tick() {
	m.mu.Lock()
	m.n++
	if m.n%m.every == 0 {
		m.marks = append(m.marks, time.Now())
	}
	m.mu.Unlock()
}

// hostCost is the host-side bill for a phase.
type hostCost struct {
	elapsed     time.Duration
	ops         int
	opsPerSec   float64
	cpuPerOp    time.Duration
	allocsPerOp float64
	bytesPerOp  float64
}

// stop closes the measured phase and fills m.cost.
func (m *meter) stop() {
	elapsed := time.Since(m.t0)
	cpu := selfCPU() - m.cpu0
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c := &m.cost
	*c = hostCost{elapsed: elapsed, ops: m.n}
	if m.n == 0 {
		return
	}
	rates := make([]float64, 0, len(m.marks))
	for i := 1; i < len(m.marks); i++ {
		if d := m.marks[i].Sub(m.marks[i-1]).Seconds(); d > 0 {
			rates = append(rates, float64(m.every)/d)
		}
	}
	if len(rates) >= 3 {
		c.opsPerSec = percentile(rates, 0.75)
	} else {
		c.opsPerSec = float64(m.n) / elapsed.Seconds()
	}
	c.cpuPerOp = cpu / time.Duration(m.n)
	c.allocsPerOp = float64(mem.Mallocs-m.mem0.Mallocs) / float64(m.n)
	c.bytesPerOp = float64(mem.TotalAlloc-m.mem0.TotalAlloc) / float64(m.n)
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the CPU time pid has used: the tasks' schedstat run time
// where the kernel keeps it (ns resolution), else utime+stime at the
// clock tick.
func procCPU(pid int) time.Duration {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns int64
	for _, t := range tasks {
		if b, err := os.ReadFile(t); err == nil {
			if f := strings.Fields(string(b)); len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				ns += v
			}
		}
	}
	if ns > 0 {
		return time.Duration(ns)
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th overall.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ut+st) * tick
}

// peakRSSMB reads VmHWM of pid ("self" for the harness).
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// digester folds the ordered per-op virtual results into virt_digest.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) num(v int64) {
	binary.BigEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digester) str(s string) {
	d.num(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scaled is n×scale, at least min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// shrunk is n for any run of at least a tenth of the calibrated length,
// and shrinks in proportion below that, to no less than min. It sizes the
// fixed parts of a testbed (homes, images, probe length), so that the
// smoke test's hundredth-scale runs do not pay for full-size set-up.
func shrunk(n int, scale float64, min int) int {
	if scale >= 0.1 {
		return n
	}
	return scaled(n, 10*scale, min)
}
