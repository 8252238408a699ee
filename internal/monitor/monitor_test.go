package monitor

import (
	"testing"
	"time"

	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/machine"
	"cloud4home/internal/objstore"
	"cloud4home/internal/overlay"
	"cloud4home/internal/vclock"
)

var epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

func buildKV(t *testing.T, addrs []string) (*kv.Store, []ids.ID) {
	t.Helper()
	wire := overlay.FreeWire{}
	mesh := overlay.NewMesh(wire)
	st := kv.New(mesh, wire, kv.Options{})
	var nodeIDs []ids.ID
	for _, a := range addrs {
		r, err := mesh.Join(a)
		if err != nil {
			t.Fatal(err)
		}
		st.Attach(r.Self().ID)
		nodeIDs = append(nodeIDs, r.Self().ID)
	}
	return st, nodeIDs
}

func TestResourcesRoundTrip(t *testing.T) {
	r := Resources{
		Addr: "10.0.0.1:9000", CPULoad: 0.5, Cores: 2, GHz: 1.66,
		MemTotalMB: 1024, MemFreeMB: 300, MandatoryFree: 1 << 30,
		VoluntaryFree: 2 << 30, BandwidthBps: 1.2e7, Battery: 0.8,
		UpdatedAt: epoch,
	}
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalResources(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := UnmarshalResources([]byte("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestKeyDerivedFromAddr(t *testing.T) {
	if Key("a:1") == Key("b:1") {
		t.Fatal("distinct addresses must have distinct resource keys")
	}
	if Key("a:1") != Key("a:1") {
		t.Fatal("resource key not deterministic")
	}
	// Resource keys must not collide with the node's own overlay ID key
	// space usage for objects named like addresses.
	if Key("a:1") == ids.HashString("a:1") {
		t.Fatal("resource key must be namespaced away from raw names")
	}
}

func TestPublishOnceAndLookup(t *testing.T) {
	addrs := []string{"h1:1", "h2:1", "h3:1"}
	st, nodeIDs := buildKV(t, addrs)
	v := vclock.NewVirtual(epoch)
	m, err := New(st, v, "h1:1", StaticSampler{R: Resources{CPULoad: 0.25, Cores: 2}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		if err := m.PublishOnce(); err != nil {
			t.Error(err)
		}
	})
	// Any node can look the record up.
	got, err := Lookup(st, nodeIDs[2], "h1:1")
	if err != nil {
		t.Fatal(err)
	}
	if got.CPULoad != 0.25 || got.Cores != 2 {
		t.Fatalf("lookup = %+v", got)
	}
	if got.Addr != "h1:1" {
		t.Fatalf("addr not defaulted: %q", got.Addr)
	}
	if !got.UpdatedAt.Equal(epoch) {
		t.Fatalf("UpdatedAt not stamped from clock: %v", got.UpdatedAt)
	}
}

func TestLookupMissing(t *testing.T) {
	st, nodeIDs := buildKV(t, []string{"x:1", "y:1"})
	if _, err := Lookup(st, nodeIDs[0], "never-published:1"); err == nil {
		t.Fatal("lookup of unpublished node succeeded")
	}
}

func TestPeriodicPublishing(t *testing.T) {
	addrs := []string{"p1:1", "p2:1"}
	st, nodeIDs := buildKV(t, addrs)
	v := vclock.NewVirtual(epoch)

	load := 0.1
	sampler := samplerFunc(func() Resources {
		load += 0.1
		return Resources{CPULoad: load}
	})
	m, err := New(st, v, "p1:1", sampler, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	v.Run(func() {
		m.Start()
		v.Sleep(7 * time.Second) // ticks at t=2,4,6
		m.Stop()
	})
	got, err := Lookup(st, nodeIDs[1], "p1:1")
	if err != nil {
		t.Fatal(err)
	}
	// Three ticks fired: load went 0.2, 0.3, 0.4.
	if got.CPULoad < 0.35 || got.CPULoad > 0.45 {
		t.Fatalf("after 3 ticks load = %v, want 0.4", got.CPULoad)
	}
	// The record carries the publication time of the last tick.
	if want := epoch.Add(6 * time.Second); !got.UpdatedAt.Equal(want) {
		t.Fatalf("UpdatedAt = %v, want %v", got.UpdatedAt, want)
	}
}

func TestStartIdempotentStopSafe(t *testing.T) {
	st, _ := buildKV(t, []string{"q1:1", "q2:1"})
	v := vclock.NewVirtual(epoch)
	m, err := New(st, v, "q1:1", StaticSampler{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m.Stop() // stop before start is a no-op
	v.Run(func() {
		m.Start()
		m.Start() // double start must not spawn a second loop
		v.Sleep(3 * time.Second)
		m.Stop()
		m.Stop() // double stop is safe
	})
}

// TestStopResumesAtNextTick: a Stop issued at t0 observes the loop's exit
// at its next tick and resumes at exactly t0+period, even with another
// worker parked beyond that tick. A stopper filed again only when a
// helper goroutine sees the loop exit (a channel inside Virtual.Block)
// can let time run on to the decoy first, in host-scheduling order —
// hence the repetitions.
func TestStopResumesAtNextTick(t *testing.T) {
	const period = 10 * time.Second
	st, _ := buildKV(t, []string{"s1:1", "s2:1"})
	for i := 0; i < 200; i++ {
		v := vclock.NewVirtual(epoch)
		m, err := New(st, v, "s1:1", StaticSampler{}, period)
		if err != nil {
			t.Fatal(err)
		}
		var resumed time.Duration
		v.Run(func() {
			decoyDone := v.NewEvent()
			v.Go(func() {
				v.Sleep(period + period/2)
				decoyDone.Fire()
			})
			m.Start()
			m.Stop()
			resumed = v.Now().Sub(epoch)
			decoyDone.Wait()
		})
		if resumed != period {
			t.Fatalf("iteration %d: stopper resumed at t0+%v, want t0+%v", i, resumed, period)
		}
	}
}

func TestNewValidation(t *testing.T) {
	st, _ := buildKV(t, []string{"v1:1"})
	v := vclock.NewVirtual(epoch)
	if _, err := New(st, v, "v1:1", StaticSampler{}, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := New(st, v, "v1:1", nil, time.Second); err == nil {
		t.Fatal("nil sampler accepted")
	}
}

func TestMachineSampler(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	mach, err := machine.New(machine.Spec{Name: "n", Cores: 2, GHz: 1.66, MemMB: 1024, Battery: 0.6}, v)
	if err != nil {
		t.Fatal(err)
	}
	os := objstore.NewMem(1000, 500)
	if err := os.Put(objstore.Mandatory, objstore.Object{Name: "o", Size: 400}, nil); err != nil {
		t.Fatal(err)
	}
	s := &MachineSampler{
		Addr:      "m:1",
		Machine:   mach,
		Store:     os,
		Bandwidth: func() float64 { return 7.4e6 },
		Clock:     v,
	}
	r := s.Sample()
	if r.Cores != 2 || r.GHz != 1.66 || r.MemTotalMB != 1024 {
		t.Fatalf("spec fields wrong: %+v", r)
	}
	if r.MandatoryFree != 600 || r.VoluntaryFree != 500 {
		t.Fatalf("bin watcher fields wrong: %+v", r)
	}
	if r.BandwidthBps != 7.4e6 || r.Battery != 0.6 {
		t.Fatalf("bandwidth/battery wrong: %+v", r)
	}
	if !r.UpdatedAt.Equal(epoch) {
		t.Fatalf("UpdatedAt = %v", r.UpdatedAt)
	}
}

// samplerFunc adapts a closure into a Sampler.
type samplerFunc func() Resources

func (f samplerFunc) Sample() Resources { return f() }

var _ Sampler = samplerFunc(nil)

func TestFreshestRecordWins(t *testing.T) {
	// A second publish must overwrite the first (Overwrite policy): the
	// decision layer always sees current state.
	st, nodeIDs := buildKV(t, []string{"w1:1", "w2:1", "w3:1", "w4:1"})
	v := vclock.NewVirtual(epoch)
	var m *Monitor
	var err error
	for i, load := range []float64{0.9, 0.2} {
		m, err = New(st, v, "w1:1", StaticSampler{R: Resources{CPULoad: load}}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		v.Run(func() {
			if err := m.PublishOnce(); err != nil {
				t.Error(err)
			}
		})
		_ = i
	}
	for _, from := range nodeIDs {
		got, err := Lookup(st, from, "w1:1")
		if err != nil {
			t.Fatal(err)
		}
		if got.CPULoad != 0.2 {
			t.Fatalf("node %s sees stale load %v", from, got.CPULoad)
		}
	}
}
