// Package machine models the compute side of the paper's heterogeneous
// testbed: Atom netbooks hosting small VMs, a quad-core desktop, and
// "extra large" EC2 instances. A Machine executes tasks described by
// their CPU work and memory footprint; concurrent tasks share cores
// (processor sharing) and overcommitting memory incurs a thrashing
// penalty — the effect that delays face recognition in the 128 MB VM of
// Fig 7 and pushes the largest images to the remote cloud.
package machine

import (
	"fmt"
	"time"

	"cloud4home/internal/vclock"
)

// Spec describes a (virtual) machine. The paper's three service hosts:
//
//	S1: 512 MB VM, 1 vCPU on a 1.3 GHz dual-core Atom
//	S2: 128 MB multi-vCPU VM on a 1.8 GHz quad-core
//	S3: EC2 extra-large paravirtualised instance, five 2.9 GHz CPUs, 14 GB
type Spec struct {
	// Name labels the machine in results ("S1", "desktop", ...).
	Name string
	// Cores is the number of vCPUs the VM may use.
	Cores int
	// GHz is the per-core clock rate; task CPU work is expressed in
	// GHz-seconds, so a 1-GHz-second task takes 1 s on a 1 GHz core.
	GHz float64
	// MemMB is the VM's memory allocation.
	MemMB int64
	// Battery, in [0,1], is the charge level for portable devices
	// (1 = full or mains powered). Decision policies may prefer plugged-in
	// machines.
	Battery float64
}

// Validate reports spec errors.
func (s Spec) Validate() error {
	if s.Cores <= 0 {
		return fmt.Errorf("machine %q: cores must be positive", s.Name)
	}
	if s.GHz <= 0 {
		return fmt.Errorf("machine %q: clock rate must be positive", s.Name)
	}
	if s.MemMB <= 0 {
		return fmt.Errorf("machine %q: memory must be positive", s.Name)
	}
	if s.Battery < 0 || s.Battery > 1 {
		return fmt.Errorf("machine %q: battery %f out of [0,1]", s.Name, s.Battery)
	}
	return nil
}

// Task is one unit of service work.
type Task struct {
	// CPUGHzSec is the task's compute demand in GHz-seconds on one core.
	CPUGHzSec float64
	// MemMB is the working-set size. Exceeding the machine's free memory
	// triggers the thrashing penalty.
	MemMB int64
	// Parallelism is how many cores the task can exploit (≥1).
	Parallelism int
}

// ThrashFactor is the slowdown applied to a task whose working set does
// not fit in the machine's free memory. Paging a looping working set
// thrashes the whole run, so the penalty applies to the full task — this
// is what "starts delaying the execution of the FRec step" on the 128 MB
// S2 VM in Fig 7.
const ThrashFactor = 8.0

// Machine executes tasks against a Spec, charging time to a clock.
type Machine struct {
	spec  Spec
	clock vclock.Clock

	// The load accounting has no lock: the clock's turn is its one
	// owner, and only the actor holding the turn calls a Machine.
	running int
	memUsed int64
	done    int64 // tasks completed
}

// New returns a machine. It panics only on an invalid spec, which is a
// programming error in experiment setup.
func New(spec Spec, clock vclock.Clock) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Machine{spec: spec, clock: clock}, nil
}

// Spec returns the machine's description.
func (m *Machine) Spec() Spec { return m.spec }

// Load returns the current utilisation: running tasks per core (may
// exceed 1 when oversubscribed). Published by the resource monitor.
func (m *Machine) Load() float64 {
	return float64(m.running) / float64(m.spec.Cores)
}

// MemFreeMB returns currently unreserved memory.
func (m *Machine) MemFreeMB() int64 {
	free := m.spec.MemMB - m.memUsed
	if free < 0 {
		free = 0
	}
	return free
}

// TasksCompleted returns the number of finished tasks.
func (m *Machine) TasksCompleted() int64 {
	return m.done
}

// Estimate predicts a task's duration under the machine's *current* load
// without running it. The decision layer uses it together with service
// profiles ("the service processing requirements and execution time ...
// maintained for each node as part of the service profile").
func (m *Machine) Estimate(t Task) time.Duration {
	return m.duration(t, m.running, m.memUsed)
}

// Exec runs the task to completion, charging its duration to the clock,
// and returns the elapsed time. Concurrent Execs contend for cores and
// memory.
func (m *Machine) Exec(t Task) (time.Duration, error) {
	if t.CPUGHzSec < 0 || t.MemMB < 0 {
		return 0, fmt.Errorf("machine %q: negative task demand", m.spec.Name)
	}
	d := m.duration(t, m.running, m.memUsed)
	m.running++
	m.memUsed += t.MemMB

	m.clock.Sleep(d)

	m.running--
	m.memUsed -= t.MemMB
	m.done++
	return d, nil
}

// duration computes the task's runtime given the load present at
// admission.
func (m *Machine) duration(t Task, running int, memUsed int64) time.Duration {
	par := t.Parallelism
	if par < 1 {
		par = 1
	}
	if par > m.spec.Cores {
		par = m.spec.Cores
	}
	// Cores are processor-shared among all runnable tasks.
	demand := running + 1
	coreShare := 1.0
	if demand > m.spec.Cores {
		coreShare = float64(m.spec.Cores) / float64(demand)
	}
	rate := m.spec.GHz * float64(par) * coreShare // GHz-seconds per second
	secs := t.CPUGHzSec / rate

	// Memory overcommit: a working set that does not fit free RAM pages
	// continuously, slowing the whole task by ThrashFactor.
	if t.MemMB > 0 {
		free := m.spec.MemMB - memUsed
		if free < 0 {
			free = 0
		}
		if t.MemMB > free {
			secs *= ThrashFactor
		}
	}
	return time.Duration(secs * float64(time.Second))
}
