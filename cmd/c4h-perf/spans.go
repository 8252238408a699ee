//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// A span is the benchmark's own record of one call into the system: a
// root per op, on both clocks, plus the phases the call's breakdown
// struct reported. Spans inside the program are a later change.
type span struct {
	name   string
	client int
	op     int
	// host times are offsets from the recorder's start; virtual ones are
	// offsets from the testbed's epoch and stay zero on a real-clock
	// workload.
	hostStart, hostEnd time.Duration
	virtStart, virtEnd time.Duration
	parts              [5]part
}

// part is one child span synthesised from a breakdown struct.
type part struct {
	name string
	d    time.Duration
}

// recorder keeps spans in memory, one lane per client so clients never
// share a slice, and writes them out when the benchmark ends.
type recorder struct {
	t0    time.Time
	lanes [][]span
}

// open sizes the lanes before the measured phase starts, so recording a
// span never grows a slice inside it. A nil recorder stays off.
func (r *recorder) open(clients, opsPerClient int) {
	if r == nil {
		return
	}
	r.t0 = time.Now()
	r.lanes = make([][]span, clients)
	for i := range r.lanes {
		r.lanes[i] = make([]span, 0, opsPerClient)
	}
}

// begin opens a root span; the caller fills the end times and parts and
// hands it to end. A nil recorder records nothing.
func (r *recorder) begin(name string, client, op int, virtNow time.Duration) span {
	if r == nil {
		return span{}
	}
	return span{name: name, client: client, op: op, hostStart: time.Since(r.t0), virtStart: virtNow}
}

func (r *recorder) end(s span, virtNow time.Duration, parts ...part) {
	if r == nil {
		return
	}
	s.hostEnd = time.Since(r.t0)
	s.virtEnd = virtNow
	copy(s.parts[:], parts)
	r.lanes[s.client] = append(r.lanes[s.client], s)
}

func (r *recorder) count() int {
	n := 0
	for _, l := range r.lanes {
		n += len(l)
	}
	return n
}

// writeChrome writes the spans as Chrome trace-event JSON: process 1 is
// the host clock with one root per op, process 2 the clients' clock with
// the root and its breakdown phases laid end to end beneath it.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	event := func(name string, pid, tid int, ts, dur time.Duration, op int) {
		if !first {
			fmt.Fprint(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d}}`,
			name, pid, tid, us(ts), us(dur), op)
	}
	for _, lane := range r.lanes {
		for _, s := range lane {
			event(s.name, 1, s.client, s.hostStart, s.hostEnd-s.hostStart, s.op)
			if s.virtEnd == 0 {
				continue
			}
			event(s.name, 2, s.client, s.virtStart, s.virtEnd-s.virtStart, s.op)
			at := s.virtStart
			for _, p := range s.parts {
				if p.d > 0 {
					event(s.name+"."+p.name, 2, s.client, at, p.d, s.op)
					at += p.d
				}
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
