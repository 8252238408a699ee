package machine

import (
	"fmt"
	"time"
)

// This file extends the machine model for the concurrent compute plane:
// a task split into independent shards occupies one runnable strand per
// shard worker, so it competes for cores exactly as that many
// independent tasks would — unlike Task.Parallelism, which models the
// paper's intrinsic speedup without charging the extra core occupancy.
//
// The Lease API additionally separates admission from completion so the
// process path can overlap a task's execution with its input transfer:
// Begin admits the task (occupying cores and memory immediately, so
// concurrent work sees the honest load) and Finish settles whatever tail
// of the duration is still owed once the overlapping phase ends.

// durationSharded computes the runtime of a task split across strands
// runnable shard workers, given the load present at admission. Each
// strand carries CPUGHzSec/strands of the work and is processor-shared
// against every other runnable strand on the machine.
func (m *Machine) durationSharded(t Task, strands int, running int, memUsed int64) time.Duration {
	if strands <= 1 {
		return m.duration(t, running, memUsed)
	}
	demand := running + strands
	coreShare := 1.0
	if demand > m.spec.Cores {
		coreShare = float64(m.spec.Cores) / float64(demand)
	}
	rate := m.spec.GHz * coreShare // GHz-seconds per second, per strand
	secs := t.CPUGHzSec / float64(strands) / rate

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

// EstimateSharded predicts a sharded task's duration under the current
// load without running it — the decision layer's honest counterpart of
// Estimate when the executing node will run the task split into strands.
func (m *Machine) EstimateSharded(t Task, strands int) time.Duration {
	return m.durationSharded(t, strands, m.running, m.memUsed)
}

// ExecSharded runs the task split across strands shard workers, charging
// its duration to the clock. The task occupies strands runnable entities
// for its whole run, so a concurrent task is slowed exactly as strands
// independent tasks would slow it. strands ≤ 1 is identical to Exec.
func (m *Machine) ExecSharded(t Task, strands int) (time.Duration, error) {
	l, err := m.Begin(t, strands)
	if err != nil {
		return 0, err
	}
	l.Finish(l.Duration())
	return l.Duration(), nil
}

// Lease is an admitted task whose completion is settled separately, so
// callers can overlap the execution window with other simulated work.
type Lease struct {
	m       *Machine
	t       Task
	strands int
	d       time.Duration
	settled bool
}

// Begin admits the task: its duration is fixed from the load at
// admission, and the machine's runnable/memory accounting reflects it
// until Finish. strands ≤ 1 uses the sequential duration model
// (including Task.Parallelism), so a Begin/Finish pair reproduces Exec's
// timing exactly.
func (m *Machine) Begin(t Task, strands int) (*Lease, error) {
	if t.CPUGHzSec < 0 || t.MemMB < 0 {
		return nil, fmt.Errorf("machine %q: negative task demand", m.spec.Name)
	}
	if strands < 1 {
		strands = 1
	}
	d := m.durationSharded(t, strands, m.running, m.memUsed)
	m.running += strands
	m.memUsed += t.MemMB
	return &Lease{m: m, t: t, strands: strands, d: d}, nil
}

// Duration is the task's runtime fixed at admission.
func (l *Lease) Duration() time.Duration { return l.d }

// Finish sleeps the still-owed tail of the execution (clamped at zero)
// and releases the lease's core and memory accounting. Calling Finish
// again is a no-op.
func (l *Lease) Finish(tail time.Duration) {
	if l.settled {
		return
	}
	l.settled = true
	if tail > 0 {
		l.m.clock.Sleep(tail)
	}
	l.m.running -= l.strands
	l.m.memUsed -= l.t.MemMB
	l.m.done++
}
