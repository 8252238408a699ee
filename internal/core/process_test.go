package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/machine"
	"cloud4home/internal/services"
)

// procCounters are the counters a process line reports the change of.
type procCounters [11]int64

func (b *ladderBed) procCounters() procCounters {
	var c procCounters
	for _, n := range b.nodes {
		st := n.OpStats()
		for i, v := range []int64{st.Processes, st.ShardsExecuted, int64(st.OverlapSaved),
			st.SpecLaunches, st.SpecWins, st.SpecCancels, st.FetchRetries, st.CloudProbes} {
			c[i] += v
		}
	}
	m, x, by := b.home.Net().Traffic()
	c[8], c[9], c[10] = m, x, by
	return c
}

func (c procCounters) since(before procCounters) string {
	return fmt.Sprintf("processes+%d shards+%d overlap_saved+%d spec_launches+%d spec_wins+%d spec_cancels+%d retries+%d probes+%d msgs+%d xfers+%d bytes+%d",
		c[0]-before[0], c[1]-before[1], c[2]-before[2], c[3]-before[3], c[4]-before[4], c[5]-before[5],
		c[6]-before[6], c[7]-before[7], c[8]-before[8], c[9]-before[9], c[10]-before[10])
}

// process runs one process operation from node from and writes its line:
// the caller-observed elapsed virtual time, the mode and target, every
// breakdown field, the counter and traffic changes, the kernel's answers,
// a hash of the output and the error. The phases net of the overlap must
// add up to the total.
func (b *ladderBed) process(label string, from int, op func(*Session) (ProcessResult, error)) ProcessResult {
	b.t.Helper()
	sess, err := b.nodes[from].OpenSession()
	if err != nil {
		b.t.Fatal(err)
	}
	defer sess.Close()
	before, start := b.procCounters(), b.v.Now()
	res, err := op(sess)
	elapsed := b.v.Now().Sub(start)
	b.nodes[from].Flush() // settle a cancelled hedge before counting
	bd := res.Breakdown
	if bd.Total != phaseSum(bd) {
		b.t.Errorf("%s/%s: phases %+v sum to %v", b.name, label, bd, phaseSum(bd))
	}
	fmt.Fprintf(b.out, "%s/%s mode=%s target=%q elapsed=%d decision=%d input_move=%d exec=%d output_move=%d overlap=%d total=%d %s detections=%d match=%d size=%d sha=%s err=%q\n",
		b.name, label, res.Mode, res.Target, elapsed, bd.Decision, bd.InputMove, bd.Exec, bd.OutputMove, bd.Overlap, bd.Total,
		b.procCounters().since(before), res.Detections, res.MatchID, res.OutputSize, digest(res.Output), errText(err))
	return res
}

func fetchProcess(name string, spec services.Spec) func(*Session) (ProcessResult, error) {
	return func(s *Session) (ProcessResult, error) { return s.FetchProcess(name, spec.Name, spec.ID) }
}

func processDecided(name string, spec services.Spec) func(*Session) (ProcessResult, error) {
	return func(s *Session) (ProcessResult, error) { return s.Process(name, spec.Name, spec.ID) }
}

func processAt(name string, spec services.Spec, target string) func(*Session) (ProcessResult, error) {
	return func(s *Session) (ProcessResult, error) { return s.ProcessAt(name, spec.Name, spec.ID, target) }
}

func pipelineAt(name string, target string, specs ...services.Spec) func(*Session) (ProcessResult, error) {
	names, ids := make([]string, len(specs)), make([]uint32, len(specs))
	for i, sp := range specs {
		names[i], ids[i] = sp.Name, sp.ID
	}
	return func(s *Session) (ProcessResult, error) { return s.ProcessPipelineAt(name, names, ids, target) }
}

// deploy installs spec on the given nodes of the scenario and republishes
// every node's resource record.
func (b *ladderBed) deploy(spec services.Spec, idx ...int) {
	b.t.Helper()
	for _, i := range idx {
		if err := b.nodes[i].DeployService(spec, ""); err != nil {
			b.t.Fatal(err)
		}
	}
	if err := b.home.PublishAll(); err != nil {
		b.t.Fatal(err)
	}
}

// train installs one training set of eight 16 KB images on every node.
func (b *ladderBed) train() {
	rng := rand.New(rand.NewSource(17))
	set := make([][]byte, 8)
	for i := range set {
		set[i] = make([]byte, 16<<10)
		rng.Read(set[i])
	}
	for _, n := range b.nodes {
		n.SetTrainingSet(set)
	}
}

// processScenarios reach every process path on homes of netbooks (see
// ladderBed): n00 stores every object, so it is the owner throughout.
func processScenarios() []ladderScenario {
	fdet, frec, x264 := services.FaceDetect(), services.FaceRecognize(), services.X264Convert()
	four := []int64{1, 1, 1, 1}
	var scs []ladderScenario

	// §III-B's three fetch-and-process cases, the decided Process, and
	// explicit targets: a peer, the requester itself, a cloud instance and
	// a host without the service, then a pipeline and a target that
	// leaves mid-op.
	scs = append(scs, ladderScenario{name: "cases", voluntaryGB: four, run: func(b *ladderBed) {
		b.train()
		b.deploy(fdet, 1)
		b.deploy(frec, 1, 3)
		b.deploy(x264, 0)
		b.store("img.bin", mb, false)
		b.store("sparse.bin", 2*mb, true)
		if _, err := b.cloud.LaunchInstance("i1", cloudsim.ExtraLargeSpec("S3")); err != nil {
			b.t.Fatal(err)
		}
		if err := b.home.DeployCloudService(x264, "i1"); err != nil {
			b.t.Fatal(err)
		}
		b.process("fetchprocess-requester", 1, fetchProcess("img.bin", fdet))
		b.process("fetchprocess-requester-sparse", 1, fetchProcess("sparse.bin", fdet))
		b.process("fetchprocess-owner", 2, fetchProcess("img.bin", x264))
		b.process("fetchprocess-owner-sparse", 2, fetchProcess("sparse.bin", x264))
		b.process("fetchprocess-decided", 2, fetchProcess("img.bin", frec))
		b.process("process-decided", 2, processDecided("img.bin", fdet))
		b.process("process-decided-sparse", 2, processDecided("sparse.bin", frec))
		b.process("processat-peer", 2, processAt("img.bin", fdet, b.nodes[1].addr))
		b.process("processat-self", 1, processAt("img.bin", fdet, b.nodes[1].addr))
		b.process("processat-owner", 2, processAt("img.bin", x264, b.nodes[0].addr))
		b.process("processat-cloud", 2, processAt("img.bin", x264, CloudServiceAddr+"i1"))
		b.process("processat-unhosted", 2, processAt("img.bin", fdet, b.nodes[3].addr))
		b.process("pipeline-fdet-frec", 2, pipelineAt("img.bin", b.nodes[1].addr, fdet, frec))
		b.process("pipeline-fdet-frec-self", 1, pipelineAt("img.bin", b.nodes[1].addr, fdet, frec))
		b.process("pipeline-unhosted-step", 2, pipelineAt("img.bin", b.nodes[3].addr, fdet, frec))
		wait := b.crashAfter(100*time.Millisecond, 3)
		b.process("processat-target-departs", 2, processAt("img.bin", frec, b.nodes[3].addr))
		wait()
		b.process("processat-departed", 2, processAt("img.bin", frec, b.nodes[3].addr))
	}})

	// Process-as-pages-arrive: an eligible move fuses with the first
	// step, alone and in a pipeline, with sharding on; a co-located or
	// cloud-bound input is ineligible and runs the phases back to back.
	scs = append(scs, ladderScenario{name: "overlap", voluntaryGB: four,
		cfg: Config{Workers: 8, Overlap: true},
		run: func(b *ladderBed) {
			b.train()
			b.deploy(fdet, 0, 1)
			b.deploy(frec, 1)
			b.store("big.bin", 4*mb, false)
			b.store("big-sparse.bin", 4*mb, true)
			if _, err := b.cloud.LaunchInstance("i1", cloudsim.ExtraLargeSpec("S3")); err != nil {
				b.t.Fatal(err)
			}
			if err := b.home.DeployCloudService(fdet, "i1"); err != nil {
				b.t.Fatal(err)
			}
			b.process("processat-overlapped", 2, processAt("big.bin", fdet, b.nodes[1].addr))
			b.process("processat-overlapped-sparse", 2, processAt("big-sparse.bin", frec, b.nodes[1].addr))
			b.process("processat-overlapped-self", 1, processAt("big.bin", frec, b.nodes[1].addr))
			b.process("processat-colocated", 2, processAt("big.bin", fdet, b.nodes[0].addr))
			b.process("processat-cloud", 2, processAt("big.bin", fdet, CloudServiceAddr+"i1"))
			b.process("pipeline-overlapped", 2, pipelineAt("big.bin", b.nodes[1].addr, fdet, frec))
			b.process("fetchprocess-decided", 2, fetchProcess("big.bin", frec))
		}})

	// Speculation over two equal netbooks: one hedge wins, then, once the
	// winner's machine is hogged behind its published record, the other.
	scs = append(scs, ladderScenario{name: "speculation", voluntaryGB: four,
		cfg: Config{Speculation: true},
		run: func(b *ladderBed) {
			b.deploy(fdet, 1, 2)
			b.store("s.bin", 2*mb, false)
			first := b.process("equal-sites", 3, processDecided("s.bin", fdet))
			hogged, ok := b.home.Node(first.Target)
			if !ok {
				b.t.Fatalf("hedge won at %q", first.Target)
			}
			for i := 0; i < 8; i++ {
				b.v.Go(func() { _, _ = hogged.Machine().Exec(machine.Task{CPUGHzSec: 200, Parallelism: 1}) })
			}
			b.v.Sleep(time.Millisecond)
			b.process("winner-hogged", 3, processDecided("s.bin", fdet))
			b.process("fetchprocess-decided", 3, fetchProcess("s.bin", fdet))
		}})

	// The input move's substitutes once the owner is gone: a whole copy
	// on a peer, and the cloud's copy pulled down to the target.
	scs = append(scs, ladderScenario{name: "fallback", voluntaryGB: []int64{1, 4, 1, 1},
		cfg: Config{ErasureK: 1, ErasureN: 1, Fallback: true},
		run: func(b *ladderBed) {
			b.deploy(fdet, 2)
			b.store("r.bin", mb, false)
			b.store("c.bin", mb, false)
			b.seedCloud("c.bin")
			b.crash(0)
			b.process("processat-whole-copy", 3, processAt("r.bin", fdet, b.nodes[2].addr))
			b.process("fetchprocess-whole-copy", 3, fetchProcess("r.bin", fdet))
			b.crash(1)
			b.process("processat-cloud-copy", 3, processAt("c.bin", fdet, b.nodes[2].addr))
			b.process("processat-none", 3, processAt("r.bin", fdet, b.nodes[2].addr))
		}})

	// The overlapped move once the primary is gone under Fallback, from a
	// whole copy and from k shards, and the overlapped move whose only
	// holder dies mid-wire, with Fallback off and on.
	scs = append(scs, ladderScenario{name: "overlap/whole-copy", voluntaryGB: []int64{1, 4, 1, 1},
		cfg: Config{Overlap: true, ErasureK: 1, ErasureN: 1, Fallback: true},
		run: func(b *ladderBed) {
			b.deploy(fdet, 2)
			b.store("r.bin", 4*mb, false)
			b.crash(0)
			b.process("processat-primary-gone", 3, processAt("r.bin", fdet, b.nodes[2].addr))
		}})
	scs = append(scs, ladderScenario{name: "overlap/shards", voluntaryGB: []int64{1, 5, 4, 3, 1, 1},
		cfg: Config{Overlap: true, Fallback: true, ErasureK: 2, ErasureN: 3},
		run: func(b *ladderBed) {
			b.deploy(fdet, 4)
			b.store("c.bin", 6*mb, false)
			b.crash(0)
			b.process("processat-primary-gone", 5, processAt("c.bin", fdet, b.nodes[4].addr))
		}})
	for _, fallback := range []bool{false, true} {
		scs = append(scs, ladderScenario{name: fmt.Sprintf("overlap/holder-dies/fallback=%v", fallback), voluntaryGB: four,
			cfg: Config{Overlap: true, Fallback: fallback},
			run: func(b *ladderBed) {
				b.deploy(fdet, 1)
				b.store("big.bin", 4*mb, false)
				wait := b.crashAfter(200*time.Millisecond, 0)
				b.process("processat-holder-dies", 2, processAt("big.bin", fdet, b.nodes[1].addr))
				wait()
			}})
	}
	// The overlapped move whose only surviving copy is the cloud's, and
	// the one whose live primary lost its copy, with Fallback off and on.
	scs = append(scs, ladderScenario{name: "overlap/cloud-copy", voluntaryGB: four,
		cfg: Config{Overlap: true, Fallback: true},
		run: func(b *ladderBed) {
			b.deploy(fdet, 1)
			b.store("c.bin", 2*mb, false)
			b.seedCloud("c.bin")
			b.crash(0)
			b.process("processat-primary-gone", 2, processAt("c.bin", fdet, b.nodes[1].addr))
		}})
	for _, fallback := range []bool{false, true} {
		scs = append(scs, ladderScenario{name: fmt.Sprintf("overlap/stale/fallback=%v", fallback), voluntaryGB: []int64{1, 4, 1, 1},
			cfg: Config{Overlap: true, ErasureK: 1, ErasureN: 1, Fallback: fallback},
			run: func(b *ladderBed) {
				b.deploy(fdet, 2)
				b.store("s.bin", 4*mb, false)
				b.dropPrimaryCopy("s.bin")
				b.process("processat-primary-lacks-copy", 3, processAt("s.bin", fdet, b.nodes[2].addr))
			}})
	}
	return scs
}

// processBedScenarios run on processBed's atom, desktop and netbook: the
// desktop hosts every service, so a FetchProcess from the atom runs at the
// owner for the desktop's image and is decided for the netbook's.
func processBedScenarios(t *testing.T, out *strings.Builder) {
	t.Helper()
	frec := services.FaceRecognize()
	for _, sc := range []struct {
		name string
		run  func(b *ladderBed, tb *testbed, names map[ProcessMode]string)
	}{
		// Requester, owner and target each hold a training set that
		// matches the image at a different index.
		{"training", func(b *ladderBed, tb *testbed, names map[ProcessMode]string) {
			_, image, err := tb.desktop.store.GetRef(names[ModeOwner])
			if err != nil {
				t.Fatal(err)
			}
			tb.atom.SetTrainingSet(frecSet(image, 3))
			tb.desktop.SetTrainingSet(frecSet(image, 5))
			tb.netbook.SetTrainingSet(frecSet(image, 6))
			b.process("fetchprocess-owner", 0, fetchProcess(names[ModeOwner], frec))
			b.process("fetchprocess-decided", 0, fetchProcess(names[ModeDecided], frec))
			b.process("fetchprocess-requester", 1, fetchProcess(names[ModeDecided], frec))
			b.process("processat-desktop", 2, processAt(names[ModeOwner], frec, tb.desktop.addr))
			b.process("process-decided", 2, processDecided(names[ModeOwner], frec))
		}},
		// Every training image is empty: the kernel fails on each path.
		{"kernel-error", func(b *ladderBed, tb *testbed, names map[ProcessMode]string) {
			for _, n := range b.nodes {
				n.SetTrainingSet([][]byte{nil, {}})
			}
			b.process("fetchprocess-owner", 0, fetchProcess(names[ModeOwner], frec))
			b.process("fetchprocess-decided", 0, fetchProcess(names[ModeDecided], frec))
			b.process("fetchprocess-requester", 1, fetchProcess(names[ModeDecided], frec))
			b.process("pipeline-fdet-frec", 0, pipelineAt(names[ModeDecided], tb.desktop.addr, services.FaceDetect(), frec))
		}},
	} {
		tb, names := processBed(t)
		b := &ladderBed{t: t, name: "processbed/" + sc.name, v: tb.v, home: tb.home, cloud: tb.cloud,
			nodes: []*Node{tb.atom, tb.desktop, tb.netbook}, out: out}
		tb.run(func() { sc.run(b, tb, names) })
	}
}

// TestProcessTranscript runs every process path — §III-B's three
// fetch-and-process cases, the decided Process, ProcessAt at a peer, the
// requester, the owner and a cloud instance, pipelines, the overlapped
// first step and its ineligible inputs, both speculation outcomes, the
// input move's fallback and cloud substitutes, kernel errors, a target
// that departs, and frec under differing training sets — and requires
// each operation's line to equal the frozen transcript.
func TestProcessTranscript(t *testing.T) {
	var sb strings.Builder
	for _, sc := range processScenarios() {
		runLadderScenario(t, sc, &sb)
	}
	processBedScenarios(t, &sb)
	got := sb.String()

	path := filepath.Join("testdata", "golden", "process.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript diverged at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript length diverged: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestOverlappedStepReleasesLease holds the overlapped first step's lease
// to every exit: the step is admitted on the target as the wire starts,
// and whether the move then delivers (Fallback off: the dying holder's
// modeled wire runs to the end) or fails (Fallback on: the holder's death
// aborts it, and no other copy exists), the target is idle again with all
// its memory free, the one admitted task settled.
func TestOverlappedStepReleasesLease(t *testing.T) {
	fdet := services.FaceDetect()
	for _, fallback := range []bool{false, true} {
		var sb strings.Builder
		runLadderScenario(t, ladderScenario{name: "lease", voluntaryGB: []int64{1, 1, 1, 1},
			cfg: Config{Overlap: true, Fallback: fallback},
			run: func(b *ladderBed) {
				b.deploy(fdet, 1)
				b.store("big.bin", 4*mb, false)
				sess, err := b.nodes[2].OpenSession()
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				m := b.nodes[1].Machine()
				free, done := m.MemFreeMB(), m.TasksCompleted()
				wait := b.crashAfter(200*time.Millisecond, 0)
				_, err = sess.ProcessAt("big.bin", fdet.Name, fdet.ID, b.nodes[1].addr)
				wait()
				if failed := err != nil; failed != fallback {
					t.Fatalf("fallback=%v: ProcessAt err = %v", fallback, err)
				}
				if load := m.Load(); load != 0 {
					t.Errorf("fallback=%v: target load %v after the op, want 0", fallback, load)
				}
				if got := m.MemFreeMB(); got != free {
					t.Errorf("fallback=%v: target has %d MB free after the op, want %d", fallback, got, free)
				}
				if got := m.TasksCompleted() - done; got != 1 {
					t.Errorf("fallback=%v: %d tasks settled on the target, want the admitted step's 1", fallback, got)
				}
			}}, &sb)
	}
}
