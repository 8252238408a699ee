package machine

import (
	"testing"
	"time"

	"cloud4home/internal/vclock"
)

func shardedTestMachine(t *testing.T) (*Machine, *vclock.Virtual) {
	t.Helper()
	v := vclock.NewVirtual(time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC))
	m, err := New(Spec{Name: "quad", Cores: 4, GHz: 2.0, MemMB: 2048, Battery: 1}, v)
	if err != nil {
		t.Fatal(err)
	}
	return m, v
}

func TestExecShardedIdleSpeedup(t *testing.T) {
	m, v := shardedTestMachine(t)
	task := Task{CPUGHzSec: 16, MemMB: 64, Parallelism: 1}
	v.Run(func() {
		// One strand: 16 GHz-s at 2 GHz → 8 s (same as Exec).
		d1, err := m.ExecSharded(task, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != 8*time.Second {
			t.Fatalf("1 strand: %v, want 8s", d1)
		}
		// Four strands on four idle cores: 4 GHz-s per strand → 2 s.
		d4, err := m.ExecSharded(task, 4)
		if err != nil {
			t.Fatal(err)
		}
		if d4 != 2*time.Second {
			t.Fatalf("4 strands: %v, want 2s", d4)
		}
		// Eight strands still only have four cores: no further speedup.
		d8, err := m.ExecSharded(task, 8)
		if err != nil {
			t.Fatal(err)
		}
		if d8 != 2*time.Second {
			t.Fatalf("8 strands: %v, want 2s", d8)
		}
	})
}

// TestExecShardedLoadAccounting is the satellite's honesty check: a
// sharded task saturating the cores slows a concurrent task exactly as
// the same number of independent single-strand tasks would.
func TestExecShardedLoadAccounting(t *testing.T) {
	const strands = 4
	probe := Task{CPUGHzSec: 4, MemMB: 32, Parallelism: 1}
	long := Task{CPUGHzSec: 160, MemMB: 256, Parallelism: 1}

	measure := func(bg func(m *Machine, g *vclock.Group)) time.Duration {
		m, v := shardedTestMachine(t)
		var probeDur time.Duration
		v.Run(func() {
			g := vclock.NewGroup(v)
			bg(m, g)
			// Let the background load admit before probing.
			v.Sleep(10 * time.Millisecond)
			d, err := m.Exec(probe)
			if err != nil {
				t.Error(err)
			}
			probeDur = d
			g.Wait()
		})
		return probeDur
	}

	sharded := measure(func(m *Machine, g *vclock.Group) {
		g.Go(func() {
			if _, err := m.ExecSharded(long, strands); err != nil {
				t.Error(err)
			}
		})
	})
	independent := measure(func(m *Machine, g *vclock.Group) {
		for i := 0; i < strands; i++ {
			each := Task{CPUGHzSec: long.CPUGHzSec / strands, MemMB: long.MemMB / strands, Parallelism: 1}
			g.Go(func() {
				if _, err := m.Exec(each); err != nil {
					t.Error(err)
				}
			})
		}
	})
	if sharded != independent {
		t.Fatalf("probe under sharded load %v != under %d independent tasks %v",
			sharded, strands, independent)
	}
	// And the probe genuinely saw contention: 4 GHz-s at 2 GHz on a
	// saturated 4-core box (demand 5) runs at 4/5 of a core's rate.
	want := time.Duration(4.0 / (2.0 * 4.0 / 5.0) * float64(time.Second))
	if sharded != want {
		t.Fatalf("probe under load: %v, want %v", sharded, want)
	}
}

func TestEstimateShardedMatchesIdleExecSharded(t *testing.T) {
	m, v := shardedTestMachine(t)
	task := Task{CPUGHzSec: 12, MemMB: 64, Parallelism: 2}
	v.Run(func() {
		for _, strands := range []int{1, 2, 4, 8} {
			est := m.EstimateSharded(task, strands)
			got, err := m.ExecSharded(task, strands)
			if err != nil {
				t.Fatal(err)
			}
			if est != got {
				t.Fatalf("strands=%d: estimate %v != exec %v", strands, est, got)
			}
		}
		// strands ≤ 1 must agree with the sequential estimator exactly.
		if m.EstimateSharded(task, 1) != m.Estimate(task) {
			t.Fatal("EstimateSharded(·, 1) diverges from Estimate")
		}
	})
}

func TestLeaseOverlapAccounting(t *testing.T) {
	m, v := shardedTestMachine(t)
	task := Task{CPUGHzSec: 16, MemMB: 512, Parallelism: 1}
	v.Run(func() {
		l, err := m.Begin(task, 2)
		if err != nil {
			t.Fatal(err)
		}
		// The lease occupies cores and memory from admission.
		if got := m.Load(); got != 0.5 {
			t.Fatalf("load during lease: %v, want 0.5", got)
		}
		if free := m.MemFreeMB(); free != 2048-512 {
			t.Fatalf("free mem during lease: %d", free)
		}
		// Overlap: half the duration elapses doing "other work", Finish
		// owes only the tail.
		v.Sleep(l.Duration() / 2)
		start := v.Now()
		l.Finish(l.Duration() / 2)
		if got := v.Now().Sub(start); got != l.Duration()/2 {
			t.Fatalf("tail slept %v, want %v", got, l.Duration()/2)
		}
		if got := m.Load(); got != 0 {
			t.Fatalf("load after Finish: %v", got)
		}
		if free := m.MemFreeMB(); free != 2048 {
			t.Fatalf("free mem after Finish: %d", free)
		}
		if m.TasksCompleted() != 1 {
			t.Fatalf("completed = %d, want 1", m.TasksCompleted())
		}
		// Finish is idempotent.
		l.Finish(time.Hour)
		if m.Load() != 0 || m.TasksCompleted() != 1 {
			t.Fatal("second Finish changed accounting")
		}
	})
}

func TestBeginRejectsNegativeDemand(t *testing.T) {
	m, v := shardedTestMachine(t)
	v.Run(func() {
		if _, err := m.Begin(Task{CPUGHzSec: -1}, 2); err == nil {
			t.Fatal("negative demand admitted")
		}
		if _, err := m.ExecSharded(Task{MemMB: -1}, 2); err == nil {
			t.Fatal("negative memory admitted")
		}
	})
}
