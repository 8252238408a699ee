package core

import (
	"reflect"
	"testing"
	"time"

	"cloud4home/internal/machine"
	"cloud4home/internal/services"
	"cloud4home/internal/vclock"
)

// cpTestbed is a home cloud with two equal desktops, so the decision
// process has a genuine runner-up for speculation to hedge onto.
type cpTestbed struct {
	v       *vclock.Virtual
	home    *Home
	atom    *Node // requester
	d1, d2  *Node // execution sites
	netbook *Node // object owner
}

func newCPTestbed(t *testing.T, cfg Config) *cpTestbed {
	t.Helper()
	tb := &cpTestbed{v: vclock.NewVirtual(epoch)}
	tb.v.Run(func() {
		tb.home = NewHome(tb.v, HomeOptions{Seed: 31, Config: cfg})
		add := func(addr string, spec machine.Spec, mand int64) *Node {
			n, err := tb.home.AddNode(NodeConfig{
				Addr: addr, Machine: spec,
				MandatoryBytes: mand, VoluntaryBytes: GB,
			})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		tb.atom = add("atom:9000", atomSpec("atom"), 2*GB)
		tb.d1 = add("desk1:9000", desktopSpec(), 8*GB)
		tb.d2 = add("desk2:9000", desktopSpec(), 8*GB)
		tb.netbook = add("netbook:9000", atomSpec("netbook"), 2*GB)
		tb.publish()
	})
	if t.Failed() {
		t.FailNow()
	}
	return tb
}

func (tb *cpTestbed) publish() {
	tb.home.PublishAll()
}

func (tb *cpTestbed) run(fn func()) { tb.v.Run(fn) }

// deployFdet installs face detection on the given nodes and stores a
// sparse object of the given size on the netbook.
func (tb *cpTestbed) deployFdet(t *testing.T, size int64, on ...*Node) {
	t.Helper()
	for _, n := range on {
		if err := n.DeployService(services.FaceDetect(), "performance"); err != nil {
			t.Fatal(err)
		}
	}
	tb.publish()
	sess, err := tb.netbook.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.CreateObject("img.bin", "image", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.StoreObject("img.bin", nil, size, StoreOptions{Blocking: true}); err != nil {
		t.Fatal(err)
	}
}

// phaseSum is what a breakdown's phases add up to net of the overlap:
// Total, when every nanosecond is charged to exactly one phase.
func phaseSum(b ProcessBreakdown) time.Duration {
	return b.Decision + b.InputMove + b.Exec + b.OutputMove - b.Overlap
}

// processAtD1 runs the 8 MB fdet object at desk1 from the atom.
func processAtD1(t *testing.T, tb *cpTestbed) ProcessResult {
	t.Helper()
	var res ProcessResult
	tb.run(func() {
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err = sess.ProcessAt("img.bin", "fdet", services.FaceDetectID, tb.d1.addr)
		if err != nil {
			t.Fatal(err)
		}
	})
	return res
}

func TestComputePlaneZeroValueIsSequential(t *testing.T) {
	tb := newCPTestbed(t, Config{})
	tb.run(func() { tb.deployFdet(t, 8<<20, tb.d1) })
	res := processAtD1(t, tb)
	// Sequential phases run back to back, and the command packet and
	// metadata lookup are Decision's: the phases add up to the total.
	if bd := res.Breakdown; bd.Overlap != 0 || bd.Total != phaseSum(bd) {
		t.Errorf("sequential breakdown %+v: phases sum to %v", bd, phaseSum(bd))
	}
	st := tb.atom.OpStats()
	if st.ShardsExecuted != 0 || st.OverlapSaved != 0 || st.SpecLaunches != 0 {
		t.Errorf("zero-value config touched the compute plane: %+v", st)
	}
}

func TestOverlapShortensTotalKeepsPhaseCosts(t *testing.T) {
	// Overlap alone (no sharding): every phase reports the same cost as
	// the sequential run, but the wall-clock total shrinks below the sum.
	seqTB := newCPTestbed(t, Config{})
	seqTB.run(func() { seqTB.deployFdet(t, 8<<20, seqTB.d1) })
	seq := processAtD1(t, seqTB)

	ovTB := newCPTestbed(t, Config{Overlap: true})
	ovTB.run(func() { ovTB.deployFdet(t, 8<<20, ovTB.d1) })
	ov := processAtD1(t, ovTB)

	if ov.Breakdown.InputMove != seq.Breakdown.InputMove {
		t.Errorf("InputMove changed under overlap: %v vs %v", ov.Breakdown.InputMove, seq.Breakdown.InputMove)
	}
	if ov.Breakdown.Exec != seq.Breakdown.Exec {
		t.Errorf("Exec changed under overlap: %v vs %v", ov.Breakdown.Exec, seq.Breakdown.Exec)
	}
	if ov.Breakdown.OutputMove != seq.Breakdown.OutputMove {
		t.Errorf("OutputMove changed under overlap: %v vs %v", ov.Breakdown.OutputMove, seq.Breakdown.OutputMove)
	}
	if bd := ov.Breakdown; bd.Overlap <= 0 || bd.Total != phaseSum(bd) {
		t.Errorf("overlapped breakdown %+v: phases net of the overlap sum to %v", bd, phaseSum(bd))
	}
	if ov.Breakdown.Total >= seq.Breakdown.Total {
		t.Errorf("overlapped total %v not below sequential %v", ov.Breakdown.Total, seq.Breakdown.Total)
	}
	if st := ovTB.atom.OpStats(); st.OverlapSaved != ov.Breakdown.Overlap {
		t.Errorf("OverlapSaved = %v, want the breakdown's %v", st.OverlapSaved, ov.Breakdown.Overlap)
	}
	if res := processAtD1(t, ovTB); res.Detections != ov.Detections {
		t.Errorf("repeat run diverged: %d vs %d detections", res.Detections, ov.Detections)
	}
}

func TestShardedExecutionSpeedsUpProcess(t *testing.T) {
	// frec's intrinsic parallelism of 2 leaves half the desktop idle in
	// the sequential model; four-plus strands fill the remaining cores.
	runFrec := func(tb *cpTestbed) ProcessResult {
		var res ProcessResult
		tb.run(func() {
			if err := tb.d1.DeployService(services.FaceRecognize(), "performance"); err != nil {
				t.Fatal(err)
			}
			tb.publish()
			sess, err := tb.netbook.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if err := sess.CreateObject("probe.bin", "image", nil); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.StoreObject("probe.bin", nil, 12<<20, StoreOptions{Blocking: true}); err != nil {
				t.Fatal(err)
			}
			asess, err := tb.atom.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			defer asess.Close()
			res, err = asess.ProcessAt("probe.bin", "frec", services.FaceRecognizeID, tb.d1.addr)
			if err != nil {
				t.Fatal(err)
			}
		})
		return res
	}
	seq := runFrec(newCPTestbed(t, Config{}))

	shTB := newCPTestbed(t, Config{Workers: 8})
	sh := runFrec(shTB)

	if sh.Breakdown.InputMove != seq.Breakdown.InputMove {
		t.Errorf("InputMove changed under sharding: %v vs %v", sh.Breakdown.InputMove, seq.Breakdown.InputMove)
	}
	if sh.Breakdown.Exec >= seq.Breakdown.Exec {
		t.Errorf("sharded exec %v not below sequential %v", sh.Breakdown.Exec, seq.Breakdown.Exec)
	}
	if sh.Breakdown.Total >= seq.Breakdown.Total {
		t.Errorf("sharded total %v not below sequential %v", sh.Breakdown.Total, seq.Breakdown.Total)
	}
	if st := shTB.atom.OpStats(); st.ShardsExecuted != 12 {
		t.Errorf("ShardsExecuted = %d, want 12", st.ShardsExecuted)
	}
}

func TestShardingDoesNotEngageBelowIntrinsicParallelism(t *testing.T) {
	// Two workers cannot beat fdet's intrinsic parallelism of 4: the
	// plane must keep the sequential model rather than regress.
	seqTB := newCPTestbed(t, Config{})
	seqTB.run(func() { seqTB.deployFdet(t, 12<<20, seqTB.d1) })
	seq := processAtD1(t, seqTB)

	w2TB := newCPTestbed(t, Config{Workers: 2})
	w2TB.run(func() { w2TB.deployFdet(t, 12<<20, w2TB.d1) })
	w2 := processAtD1(t, w2TB)

	if w2.Breakdown.Exec != seq.Breakdown.Exec {
		t.Errorf("workers=2 changed exec: %v vs %v", w2.Breakdown.Exec, seq.Breakdown.Exec)
	}
	if st := w2TB.atom.OpStats(); st.ShardsExecuted != 0 {
		t.Errorf("ShardsExecuted = %d, want 0 (sharding must not engage)", st.ShardsExecuted)
	}
}

// specScenario builds a fresh speculative testbed, runs one decided
// process over the two desktops, flushes the loser, and reports the
// result and the requester's counters.
func specScenario(t *testing.T, hogged bool) (ProcessResult, OpStats) {
	t.Helper()
	cp := Config{Workers: 8, Speculation: true}
	tb := newCPTestbed(t, cp)
	tb.run(func() { tb.deployFdet(t, 12<<20, tb.d1, tb.d2) })
	if hogged {
		// Saturate desk1 after its resource record was published: the
		// decision still picks it on stale data, and the hedge on desk2
		// must win. Eight single-strand hogs drop desk1's core share to
		// a quarter for the probe's strands.
		tb.run(func() {
			for i := 0; i < 8; i++ {
				tb.v.Go(func() {
					_, _ = tb.d1.Machine().Exec(machine.Task{CPUGHzSec: 500, Parallelism: 1})
				})
			}
			// Let the hogs admit themselves before the decision runs.
			tb.v.Sleep(time.Millisecond)
		})
	}
	var res ProcessResult
	tb.run(func() {
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err = sess.Process("img.bin", "fdet", services.FaceDetectID)
		if err != nil {
			t.Fatal(err)
		}
		tb.atom.Flush() // settle the cancelled loser
	})
	return res, tb.atom.OpStats()
}

func TestSpeculationPrimaryWinsOnEqualSites(t *testing.T) {
	res, st := specScenario(t, false)
	if st.SpecLaunches != 1 {
		t.Fatalf("SpecLaunches = %d, want 1 (equal estimates must hedge)", st.SpecLaunches)
	}
	// Equal machines: the staggered secondary cannot beat the primary.
	if st.SpecWins != 0 {
		t.Errorf("SpecWins = %d, want 0", st.SpecWins)
	}
	if st.SpecCancels != 1 {
		t.Errorf("SpecCancels = %d, want 1 (loser aborts at a phase boundary)", st.SpecCancels)
	}
	if res.Target != "desk1:9000" && res.Target != "desk2:9000" {
		t.Errorf("target = %q", res.Target)
	}
}

func TestSpeculationSecondaryWinsOnStaleEstimates(t *testing.T) {
	res, st := specScenario(t, true)
	if st.SpecLaunches != 1 {
		t.Fatalf("SpecLaunches = %d, want 1", st.SpecLaunches)
	}
	if st.SpecWins != 1 {
		t.Errorf("SpecWins = %d, want 1 (hedge on the idle desktop must win)", st.SpecWins)
	}
	if res.Target != "desk2:9000" {
		t.Errorf("winner ran at %q, want the idle desk2", res.Target)
	}
}

func TestSpeculationIsDeterministic(t *testing.T) {
	for _, hogged := range []bool{false, true} {
		res1, st1 := specScenario(t, hogged)
		res2, st2 := specScenario(t, hogged)
		if !reflect.DeepEqual(res1, res2) {
			t.Errorf("hogged=%v: results differ:\n%+v\n%+v", hogged, res1, res2)
		}
		if st1 != st2 {
			t.Errorf("hogged=%v: counters differ: %+v vs %+v", hogged, st1, st2)
		}
	}
}

func TestSpeculationSkippedOutsideMargin(t *testing.T) {
	// Only one desktop hosts the service besides the atom: the atom's
	// estimate is far outside the 25% margin, so no hedge launches.
	tb := newCPTestbed(t, Config{Speculation: true})
	tb.run(func() { tb.deployFdet(t, 12<<20, tb.d1, tb.atom) })
	tb.run(func() {
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.Process("img.bin", "fdet", services.FaceDetectID); err != nil {
			t.Fatal(err)
		}
	})
	if st := tb.atom.OpStats(); st.SpecLaunches != 0 {
		t.Errorf("SpecLaunches = %d, want 0 (estimates far apart)", st.SpecLaunches)
	}
}
