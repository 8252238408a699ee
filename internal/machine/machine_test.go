package machine

import (
	"testing"
	"time"

	"cloud4home/internal/vclock"
)

var epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

func atomSpec() Spec {
	return Spec{Name: "S1", Cores: 1, GHz: 1.3, MemMB: 512, Battery: 1}
}

func quadSpec() Spec {
	return Spec{Name: "S2", Cores: 4, GHz: 1.8, MemMB: 128, Battery: 1}
}

func ec2Spec() Spec {
	return Spec{Name: "S3", Cores: 5, GHz: 2.9, MemMB: 14 << 10, Battery: 1}
}

func TestSpecValidate(t *testing.T) {
	for _, s := range []Spec{atomSpec(), quadSpec(), ec2Spec()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	bad := []Spec{
		{Name: "no-cores", Cores: 0, GHz: 1, MemMB: 1},
		{Name: "no-clock", Cores: 1, GHz: 0, MemMB: 1},
		{Name: "no-mem", Cores: 1, GHz: 1, MemMB: 0},
		{Name: "bad-batt", Cores: 1, GHz: 1, MemMB: 1, Battery: 2},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", s.Name)
		}
	}
}

func TestExecBasicTiming(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	m, err := New(atomSpec(), v)
	if err != nil {
		t.Fatal(err)
	}
	var d time.Duration
	v.Run(func() {
		// 1.3 GHz-seconds on a 1.3 GHz single core: exactly 1 s.
		d, err = m.Exec(Task{CPUGHzSec: 1.3, MemMB: 10, Parallelism: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if d != time.Second {
		t.Fatalf("duration = %v, want 1s", d)
	}
}

func TestFasterMachineFinishesSooner(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	s1, _ := New(atomSpec(), v)
	s3, _ := New(ec2Spec(), v)
	task := Task{CPUGHzSec: 10, MemMB: 50, Parallelism: 4}
	var d1, d3 time.Duration
	v.Run(func() {
		d1, _ = s1.Exec(task)
		d3, _ = s3.Exec(task)
	})
	if d3 >= d1 {
		t.Fatalf("EC2 (%v) not faster than Atom (%v)", d3, d1)
	}
}

func TestParallelismCappedAtCores(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	m, _ := New(quadSpec(), v)
	var d4, d8 time.Duration
	v.Run(func() {
		d4, _ = m.Exec(Task{CPUGHzSec: 7.2, Parallelism: 4})
		d8, _ = m.Exec(Task{CPUGHzSec: 7.2, Parallelism: 8})
	})
	if d4 != d8 {
		t.Fatalf("parallelism beyond core count changed runtime: %v vs %v", d4, d8)
	}
	// 7.2 GHz-sec across 4 × 1.8 GHz cores = 1 s.
	if d4 != time.Second {
		t.Fatalf("quad-core runtime = %v, want 1s", d4)
	}
}

func TestMemoryOvercommitThrashes(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	m, _ := New(quadSpec(), v) // 128 MB VM, as S2 in Fig 7
	fits := Task{CPUGHzSec: 1.8, MemMB: 100, Parallelism: 1}
	thrashes := Task{CPUGHzSec: 1.8, MemMB: 400, Parallelism: 1}
	var dFit, dThrash time.Duration
	v.Run(func() {
		dFit, _ = m.Exec(fits)
		dThrash, _ = m.Exec(thrashes)
	})
	if dThrash < 3*dFit {
		t.Fatalf("overcommitted task %v not much slower than fitting task %v", dThrash, dFit)
	}
}

func TestConcurrentTasksShareCores(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	m, _ := New(atomSpec(), v) // single core
	task := Task{CPUGHzSec: 1.3, Parallelism: 1}
	var solo time.Duration
	var with2 time.Duration
	v.Run(func() {
		solo, _ = m.Exec(task)
		g := vclock.NewGroup(v)
		g.Go(func() {
			if _, err := m.Exec(Task{CPUGHzSec: 13, Parallelism: 1}); err != nil {
				t.Error(err)
			}
		})
		v.Sleep(time.Millisecond) // let the long task start
		with2, _ = m.Exec(task)
		g.Wait()
	})
	if with2 < time.Duration(float64(solo)*1.8) {
		t.Fatalf("contended run %v not ≈2× solo %v on one core", with2, solo)
	}
}

func TestLoadAndMemTracking(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	m, _ := New(quadSpec(), v)
	if m.Load() != 0 || m.MemFreeMB() != 128 {
		t.Fatalf("idle machine: load=%v free=%v", m.Load(), m.MemFreeMB())
	}
	v.Run(func() {
		g := vclock.NewGroup(v)
		g.Go(func() {
			if _, err := m.Exec(Task{CPUGHzSec: 18, MemMB: 100}); err != nil {
				t.Error(err)
			}
		})
		v.Sleep(100 * time.Millisecond)
		if got := m.Load(); got != 0.25 {
			t.Errorf("load during task = %v, want 0.25", got)
		}
		if got := m.MemFreeMB(); got != 28 {
			t.Errorf("free mem during task = %v, want 28", got)
		}
		g.Wait()
	})
	if m.Load() != 0 || m.MemFreeMB() != 128 || m.TasksCompleted() != 1 {
		t.Fatalf("machine not restored after task: load=%v free=%v done=%d",
			m.Load(), m.MemFreeMB(), m.TasksCompleted())
	}
}

func TestEstimateMatchesIdleExec(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	m, _ := New(ec2Spec(), v)
	task := Task{CPUGHzSec: 29, MemMB: 1000, Parallelism: 5}
	est := m.Estimate(task)
	var actual time.Duration
	v.Run(func() { actual, _ = m.Exec(task) })
	if est != actual {
		t.Fatalf("Estimate %v != Exec %v on an idle machine", est, actual)
	}
}

func TestNegativeTaskRejected(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	m, _ := New(atomSpec(), v)
	v.Run(func() {
		if _, err := m.Exec(Task{CPUGHzSec: -1}); err == nil {
			t.Error("negative CPU demand accepted")
		}
		if _, err := m.Exec(Task{MemMB: -1}); err == nil {
			t.Error("negative memory demand accepted")
		}
	})
}
