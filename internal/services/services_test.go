package services

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/overlay"
)

func buildKV(t *testing.T, n int) (*kv.Store, []ids.ID) {
	t.Helper()
	wire := overlay.FreeWire{}
	mesh := overlay.NewMesh(wire)
	st := kv.New(mesh, wire, kv.Options{})
	var nodeIDs []ids.ID
	for i := 0; i < n; i++ {
		r, err := mesh.Join(fmt.Sprintf("svc-%d:1", i))
		if err != nil {
			t.Fatal(err)
		}
		st.Attach(r.Self().ID)
		nodeIDs = append(nodeIDs, r.Self().ID)
	}
	return st, nodeIDs
}

func TestBuiltinSpecsValid(t *testing.T) {
	for _, s := range Builtin() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSpecValidateRejectsBad(t *testing.T) {
	bad := []Spec{
		{Name: "", Parallelism: 1},
		{Name: "neg-cpu", CPUGHzSecPerMB: -1, Parallelism: 1},
		{Name: "no-par", Parallelism: 0},
		{Name: "neg-out", Parallelism: 1, OutputRatio: -0.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %q accepted", s.Name)
		}
	}
}

func TestTaskScalesWithInput(t *testing.T) {
	s := FaceDetect()
	t1 := s.Task(1 << 20)
	t4 := s.Task(4 << 20)
	if t4.CPUGHzSec <= t1.CPUGHzSec {
		t.Fatal("CPU demand must grow with input size")
	}
	if t4.MemMB <= t1.MemMB {
		t.Fatal("memory demand must grow with input size")
	}
	if t1.Parallelism != s.Parallelism {
		t.Fatal("parallelism lost in Task conversion")
	}
}

func TestFRecIsMemoryHeavy(t *testing.T) {
	// The paper's characterisation: detection is CPU-intensive,
	// recognition memory-intensive. At 2 MB images FRec must exceed the
	// 128 MB S2 VM while FDet does not.
	fdet, frec := FaceDetect(), FaceRecognize()
	size := int64(2 << 20)
	if frec.Task(size).MemMB <= 128 {
		t.Fatalf("FRec at 2 MB needs %d MB; must exceed the 128 MB VM", frec.Task(size).MemMB)
	}
	if fdet.Task(size).MemMB > 128 {
		t.Fatalf("FDet at 2 MB needs %d MB; should fit the 128 MB VM", fdet.Task(size).MemMB)
	}
}

func TestOutputSize(t *testing.T) {
	x := X264Convert()
	out := x.OutputSize(100 << 20)
	if out >= 100<<20 || out <= 0 {
		t.Fatalf("conversion output %d not in (0, input)", out)
	}
	frec := FaceRecognize()
	if frec.OutputSize(2<<20) > 1024 {
		t.Fatal("recognition output should be tiny (just a match ID)")
	}
}

func TestServiceKeysDistinct(t *testing.T) {
	keys := map[ids.ID]string{}
	for _, s := range Builtin() {
		if prev, dup := keys[s.Key()]; dup {
			t.Fatalf("key collision between %s and %s", prev, s.Name)
		}
		keys[s.Key()] = s.Name
	}
	if Key("fdet", 1) == Key("fdet", 2) {
		t.Fatal("same name, different ID must produce different keys")
	}
}

// formattedKey is Key as it was first written, through fmt and a string:
// Key must give the same ID bits for every name and id.
func formattedKey(name string, id uint32) ids.ID {
	return ids.HashString(fmt.Sprintf("service:%s#%d", name, id))
}

func TestKeyMatchesFormattedKey(t *testing.T) {
	long := strings.Repeat("a-service-name-longer-than-the-stack-buffer/", 3)
	for _, name := range []string{"", "fdet", "frec", "x264", "n\u00e4me#with:marks", long} {
		for _, id := range []uint32{0, 1, FaceDetectID, FaceRecognizeID, X264ConvertID, 1 << 31, math.MaxUint32} {
			if got, want := Key(name, id), formattedKey(name, id); got != want {
				t.Errorf("Key(%q, %d) = %v, formatted %v", name, id, got, want)
			}
		}
	}
}

// TestKeyAllocatesNothing: a key is built on the stack and hashed there.
func TestKeyAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { sinkKey = Key("fdet", math.MaxUint32) }); n != 0 {
		t.Errorf("Key: %v allocations, want 0", n)
	}
}

var sinkKey ids.ID

func TestRegisterDiscoverRoundTrip(t *testing.T) {
	st, nodes := buildKV(t, 4)
	spec := FaceDetect()
	if err := Register(st, nodes[0], spec, "atom-1:1", "performance"); err != nil {
		t.Fatal(err)
	}
	if err := Register(st, nodes[1], spec, "desktop:1", ""); err != nil {
		t.Fatal(err)
	}
	reg, err := Discover(st, nodes[2], "fdet", FaceDetectID)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Nodes) != 2 {
		t.Fatalf("registration lists %d nodes, want 2: %v", len(reg.Nodes), reg.Nodes)
	}
	if reg.Policy != "performance" {
		t.Fatalf("policy = %q, want performance (empty update must not clobber)", reg.Policy)
	}
	if reg.Spec.CPUGHzSecPerMB != spec.CPUGHzSecPerMB {
		t.Fatal("spec profile lost in registration")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	st, nodes := buildKV(t, 3)
	spec := X264Convert()
	for i := 0; i < 3; i++ {
		if err := Register(st, nodes[0], spec, "same:1", "p"); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := Discover(st, nodes[1], spec.Name, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Nodes) != 1 {
		t.Fatalf("re-registration duplicated nodes: %v", reg.Nodes)
	}
}

func TestDeregister(t *testing.T) {
	st, nodes := buildKV(t, 3)
	spec := FaceRecognize()
	for _, a := range []string{"a:1", "b:1", "c:1"} {
		if err := Register(st, nodes[0], spec, a, "p"); err != nil {
			t.Fatal(err)
		}
	}
	if err := Deregister(st, nodes[1], spec, "b:1"); err != nil {
		t.Fatal(err)
	}
	reg, err := Discover(st, nodes[2], spec.Name, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Nodes) != 2 {
		t.Fatalf("after deregister: %v", reg.Nodes)
	}
	for _, n := range reg.Nodes {
		if n == "b:1" {
			t.Fatal("deregistered node still listed")
		}
	}
}

func TestDiscoverUnknownService(t *testing.T) {
	st, nodes := buildKV(t, 2)
	if _, err := Discover(st, nodes[0], "nonexistent", 1); err == nil {
		t.Fatal("discovery of unregistered service succeeded")
	}
}

func TestDetectFacesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 64<<10)
	rng.Read(data)
	a, err := DetectFaces(data)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := DetectFaces(data)
	if len(a) != len(b) {
		t.Fatal("detection not deterministic")
	}
	if _, err := DetectFaces(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestDetectFacesFindsStructuredRegions(t *testing.T) {
	// A flat image has zero variance (no hits); a structured gradient
	// region falls in the detection band.
	flat := make([]byte, 4096)
	hits, err := DetectFaces(flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("flat image produced %d detections", len(hits))
	}
	structured := make([]byte, 4096)
	for i := range structured {
		structured[i] = byte((i % 200)) // ramp: variance in the mid band
	}
	hits, err = DetectFaces(structured)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("structured image produced no detections")
	}
}

func TestRecognizeFaceFindsExactMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	training := make([][]byte, 10)
	for i := range training {
		training[i] = make([]byte, 8192)
		rng.Read(training[i])
	}
	for want := range training {
		got, err := RecognizeFace(training[want], training)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("probe %d matched %d", want, got)
		}
	}
}

func TestRecognizeFaceErrors(t *testing.T) {
	if _, err := RecognizeFace(nil, [][]byte{{1}}); err == nil {
		t.Fatal("empty probe accepted")
	}
	if _, err := RecognizeFace([]byte{1}, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := RecognizeFace([]byte{1}, [][]byte{nil, nil}); err == nil {
		t.Fatal("all-empty training set accepted")
	}
}

func TestConvertVideoShrinksAndRecordsLength(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := make([]byte, 100<<10)
	rng.Read(data)
	out, err := ConvertVideo(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) >= len(data) {
		t.Fatalf("conversion did not shrink: %d -> %d", len(data), len(out))
	}
	n, err := ConvertedSourceLen(out)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("recorded source length %d, want %d", n, len(data))
	}
	if _, err := ConvertVideo(nil); err == nil {
		t.Fatal("empty video accepted")
	}
	if _, err := ConvertedSourceLen([]byte{1, 2}); err == nil {
		t.Fatal("short converted payload accepted")
	}
}

func TestRegistrationSerialization(t *testing.T) {
	reg := Registration{Spec: FaceDetect(), Nodes: []string{"a:1"}, Policy: "balanced"}
	data, err := reg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalRegistration(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Name != "fdet" || len(got.Nodes) != 1 || got.Policy != "balanced" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := UnmarshalRegistration([]byte("junk")); err == nil {
		t.Fatal("junk registration accepted")
	}
}
