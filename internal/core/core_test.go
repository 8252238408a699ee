package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/kv"
	"cloud4home/internal/machine"
	"cloud4home/internal/policy"
	"cloud4home/internal/services"
	"cloud4home/internal/vclock"
)

var epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

const GB = int64(1) << 30

// testbed builds a small home cloud inside a virtual-clock worker:
// an Atom netbook, a desktop, and a second netbook, plus the remote
// cloud with one extra-large instance. It mirrors the paper's testbed
// in miniature.
type testbed struct {
	v       *vclock.Virtual
	home    *Home
	atom    *Node
	desktop *Node
	netbook *Node
	cloud   *cloudsim.Cloud
}

func atomSpec(name string) machine.Spec {
	return machine.Spec{Name: name, Cores: 1, GHz: 1.3, MemMB: 512, Battery: 1}
}

func desktopSpec() machine.Spec {
	return machine.Spec{Name: "desktop", Cores: 4, GHz: 2.3, MemMB: 2048, Battery: 1}
}

func newTestbed(t testing.TB, kvOpts kv.Options) *testbed {
	t.Helper()
	tb := &testbed{v: vclock.NewVirtual(epoch)}
	tb.v.Run(func() {
		tb.home = NewHome(tb.v, HomeOptions{Seed: 31, KV: kvOpts})
		tb.cloud = cloudsim.New(tb.v, tb.home.Net())
		tb.home.AttachCloud(tb.cloud)
		var err error
		tb.atom, err = tb.home.AddNode(NodeConfig{
			Addr: "atom:9000", Machine: atomSpec("atom"),
			MandatoryBytes: 2 * GB, VoluntaryBytes: 1 * GB,
			CloudGateway: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		tb.desktop, err = tb.home.AddNode(NodeConfig{
			Addr: "desktop:9000", Machine: desktopSpec(),
			MandatoryBytes: 8 * GB, VoluntaryBytes: 8 * GB,
		})
		if err != nil {
			t.Error(err)
			return
		}
		tb.netbook, err = tb.home.AddNode(NodeConfig{
			Addr: "netbook:9000", Machine: atomSpec("netbook"),
			MandatoryBytes: 2 * GB, VoluntaryBytes: 1 * GB,
		})
		if err != nil {
			t.Error(err)
			return
		}
		tb.publish()
	})
	if t.Failed() {
		t.FailNow()
	}
	return tb
}

// publish pushes fresh resource records for every node (the periodic
// monitor's job, done on demand in tests).
func (tb *testbed) publish() {
	for _, n := range tb.home.Nodes() {
		_ = n.Monitor().PublishOnce()
	}
}

// run executes fn inside the virtual clock.
func (tb *testbed) run(fn func()) { tb.v.Run(fn) }

func TestStoreDefaultPlacesLocally(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		if err := sess.CreateObject("doc.txt", "text", nil); err != nil {
			t.Error(err)
			return
		}
		res, err := sess.StoreObject("doc.txt", nil, 10<<20, StoreOptions{Blocking: true})
		if err != nil {
			t.Error(err)
			return
		}
		if res.Target != policy.TargetLocal || res.Location != "atom:9000" {
			t.Errorf("placement = %v at %q, want local at atom", res.Target, res.Location)
		}
		if res.InterDomain <= 0 || res.Total < res.InterDomain {
			t.Errorf("cost accounting wrong: %+v", res)
		}
		if !tb.atom.ObjectStore().Has("doc.txt") {
			t.Error("object not in the local store")
		}
	})
}

func TestStoreWithoutCreateFails(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		if _, err := sess.StoreObject("never-created", nil, 10, StoreOptions{Blocking: true}); err == nil {
			t.Error("store without CreateObject succeeded")
		}
	})
}

func TestStoreOverflowsToPeerVoluntaryBin(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		// Fill the atom's 2 GB mandatory bin, then store more.
		if err := sess.CreateObject("fill", "blob", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.StoreObject("fill", nil, 2*GB, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		tb.publish()
		if err := sess.CreateObject("overflow", "blob", nil); err != nil {
			t.Error(err)
			return
		}
		res, err := sess.StoreObject("overflow", nil, 1*GB, StoreOptions{Blocking: true})
		if err != nil {
			t.Error(err)
			return
		}
		if res.Target != policy.TargetPeer {
			t.Errorf("placement = %v at %q, want peer (desktop has most voluntary space)", res.Target, res.Location)
		}
		if res.Location != "desktop:9000" {
			t.Errorf("overflowed to %q, want desktop:9000", res.Location)
		}
	})
}

func TestStoreSizePolicySendsLargeToCloud(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		pol := policy.SizeThreshold{RemoteBytes: 20 << 20}
		for _, tc := range []struct {
			name string
			size int64
			want policy.StoreTarget
		}{
			{"small.jpg", 5 << 20, policy.TargetLocal},
			{"large.avi", 50 << 20, policy.TargetCloud},
		} {
			if err := sess.CreateObject(tc.name, "media", nil); err != nil {
				t.Error(err)
				return
			}
			res, err := sess.StoreObject(tc.name, nil, tc.size, StoreOptions{Blocking: true, Policy: pol})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Target != tc.want {
				t.Errorf("%s: placement %v, want %v", tc.name, res.Target, tc.want)
			}
		}
		if !tb.cloud.Has("large.avi") {
			t.Error("large object not in the cloud bucket")
		}
	})
}

func TestNonBlockingStoreCompletesInBackground(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		if err := sess.CreateObject("async.bin", "blob", nil); err != nil {
			t.Error(err)
			return
		}
		res, err := sess.StoreObject("async.bin", nil, 100<<20, StoreOptions{Blocking: false})
		if err != nil {
			t.Error(err)
			return
		}
		if res.Location != "" {
			t.Error("non-blocking store should not report a location yet")
		}
		// A blocking 100 MB placement charges placement time; the
		// non-blocking call returns after just the inter-domain copy.
		if res.Total > 5*time.Second {
			t.Errorf("non-blocking store blocked for %v", res.Total)
		}
		tb.atom.Flush()
		// After the flush the metadata must be queryable.
		meta, _, err := tb.atom.getMeta("async.bin")
		if err != nil {
			t.Errorf("metadata missing after flush: %v", err)
			return
		}
		if meta.Size != 100<<20 {
			t.Errorf("meta.Size = %d", meta.Size)
		}
	})
}

// TestFlushIdleDoesNotYieldClock: Flush with nothing in flight (every
// RemoveNode starts with one) returns without deregistering the caller.
// Yielding there leaves the clock with no runnable worker for an instant,
// so it jumps to the next sleeper and wakes it beside the caller.
func TestFlushIdleDoesNotYieldClock(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		var ran atomic.Bool
		woke := tb.v.NewEvent()
		tb.v.Go(func() {
			tb.v.Sleep(time.Second + time.Millisecond)
			ran.Store(true)
			woke.Fire()
		})
		tb.v.Sleep(time.Millisecond) // resumes only once the sleeper is parked, 1 s ahead
		t0 := tb.v.Now()
		tb.atom.Flush()
		if now := tb.v.Now(); !now.Equal(t0) {
			t.Errorf("idle Flush moved virtual time by %v", now.Sub(t0))
		}
		if ran.Load() {
			t.Error("idle Flush let a sleeper parked 1 s ahead run")
		}
		woke.Wait()
	})
}

func TestBlockingStoreCostsMoreThanNonBlocking(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		mustStore := func(name string, blocking bool) time.Duration {
			if err := sess.CreateObject(name, "b", nil); err != nil {
				t.Fatal(err)
			}
			res, err := sess.StoreObject(name, nil, 20<<20, StoreOptions{Blocking: blocking})
			if err != nil {
				t.Fatal(err)
			}
			return res.Total
		}
		b := mustStore("blocking.bin", true)
		tb.atom.Flush()
		nb := mustStore("nonblocking.bin", false)
		tb.atom.Flush()
		if nb >= b {
			t.Errorf("non-blocking latency %v ≥ blocking %v", nb, b)
		}
	})
}

func TestFetchLocalPeerAndCloud(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		atomSess, _ := tb.atom.OpenSession()
		defer atomSess.Close()
		deskSess, _ := tb.desktop.OpenSession()
		defer deskSess.Close()

		// Place one object at each location class.
		if err := atomSess.CreateObject("local.bin", "b", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := atomSess.StoreObject("local.bin", nil, 10<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		if err := deskSess.CreateObject("peer.bin", "b", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := deskSess.StoreObject("peer.bin", nil, 10<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		if err := atomSess.CreateObject("remote.bin", "b", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := atomSess.StoreObject("remote.bin", nil, 10<<20,
			StoreOptions{Blocking: true, Policy: policy.SizeThreshold{RemoteBytes: 1}}); err != nil {
			t.Error(err)
			return
		}

		local, err := atomSess.FetchObject("local.bin")
		if err != nil {
			t.Error(err)
			return
		}
		peer, err := atomSess.FetchObject("peer.bin")
		if err != nil {
			t.Error(err)
			return
		}
		remote, err := atomSess.FetchObject("remote.bin")
		if err != nil {
			t.Error(err)
			return
		}

		if local.Source != "atom:9000" || local.Breakdown.InterNode != 0 {
			t.Errorf("local fetch: source %q internode %v", local.Source, local.Breakdown.InterNode)
		}
		if peer.Source != "desktop:9000" || peer.Breakdown.InterNode <= 0 {
			t.Errorf("peer fetch: source %q internode %v", peer.Source, peer.Breakdown.InterNode)
		}
		if remote.Source != cloudsim.URL("remote.bin") {
			t.Errorf("remote fetch source %q", remote.Source)
		}
		// Fig 4: remote ≫ peer > local.
		if !(remote.Breakdown.Total > peer.Breakdown.Total && peer.Breakdown.Total > local.Breakdown.Total) {
			t.Errorf("latency ordering violated: local %v, peer %v, remote %v",
				local.Breakdown.Total, peer.Breakdown.Total, remote.Breakdown.Total)
		}
		// Table I: the DHT lookup is small and the inter-domain cost is
		// much smaller than inter-node.
		if peer.Breakdown.DHTLookup > 100*time.Millisecond {
			t.Errorf("DHT lookup %v implausibly large", peer.Breakdown.DHTLookup)
		}
		if peer.Breakdown.InterDomain >= peer.Breakdown.InterNode {
			t.Errorf("inter-domain %v not ≪ inter-node %v",
				peer.Breakdown.InterDomain, peer.Breakdown.InterNode)
		}
	})
}

func TestFetchMissingObject(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		if _, err := sess.FetchObject("ghost.bin"); !errors.Is(err, ErrObjectNotFound) {
			t.Errorf("got %v, want ErrObjectNotFound", err)
		}
	})
}

func TestMaterializedDataRoundTrip(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		rng := rand.New(rand.NewSource(4))
		data := make([]byte, 256<<10)
		rng.Read(data)
		if _, err := sess.StoreObjectData("photo.jpg", "image", data, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		// Fetch from another node: bytes must survive the trip.
		deskSess, _ := tb.desktop.OpenSession()
		defer deskSess.Close()
		got, err := deskSess.FetchObject("photo.jpg")
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got.Data, data) {
			t.Error("payload corrupted between nodes")
		}
	})
}

func deployPipeline(t *testing.T, tb *testbed) {
	t.Helper()
	for _, spec := range []services.Spec{services.FaceDetect(), services.FaceRecognize()} {
		if err := tb.desktop.DeployService(spec, "performance"); err != nil {
			t.Error(err)
		}
	}
	tb.publish()
}

func TestFetchProcessRequesterCapable(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		// The requester itself hosts the service: case 1 of §III-B.
		if err := tb.desktop.DeployService(services.FaceDetect(), ""); err != nil {
			t.Error(err)
			return
		}
		tb.publish()
		atomSess, _ := tb.atom.OpenSession()
		defer atomSess.Close()
		if err := atomSess.CreateObject("img.jpg", "image", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := atomSess.StoreObject("img.jpg", nil, 1<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		deskSess, _ := tb.desktop.OpenSession()
		defer deskSess.Close()
		res, err := deskSess.FetchProcess("img.jpg", "fdet", services.FaceDetectID)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Mode != ModeRequester {
			t.Errorf("mode = %v, want requester", res.Mode)
		}
		if res.Target != "desktop:9000" {
			t.Errorf("target = %q", res.Target)
		}
		if res.Breakdown.Exec <= 0 {
			t.Error("no execution time charged")
		}
	})
}

func TestFetchProcessOwnerCapable(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		deployPipeline(t, tb) // services on the desktop only
		deskSess, _ := tb.desktop.OpenSession()
		defer deskSess.Close()
		// Object owned by the desktop; requester (atom) has no service.
		if err := deskSess.CreateObject("owned.jpg", "image", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := deskSess.StoreObject("owned.jpg", nil, 1<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		atomSess, _ := tb.atom.OpenSession()
		defer atomSess.Close()
		res, err := atomSess.FetchProcess("owned.jpg", "fdet", services.FaceDetectID)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Mode != ModeOwner {
			t.Errorf("mode = %v, want owner", res.Mode)
		}
		if res.Target != "desktop:9000" {
			t.Errorf("target = %q, want desktop", res.Target)
		}
		if res.Breakdown.InputMove != 0 {
			t.Errorf("owner execution moved the input: %v", res.Breakdown.InputMove)
		}
	})
}

func TestFetchProcessDecided(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		deployPipeline(t, tb)
		// Object owned by the netbook (no service), requested by the atom
		// (no service): the decision must route to the desktop.
		nbSess, _ := tb.netbook.OpenSession()
		defer nbSess.Close()
		if err := nbSess.CreateObject("else.jpg", "image", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := nbSess.StoreObject("else.jpg", nil, 1<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		atomSess, _ := tb.atom.OpenSession()
		defer atomSess.Close()
		res, err := atomSess.FetchProcess("else.jpg", "fdet", services.FaceDetectID)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Mode != ModeDecided {
			t.Errorf("mode = %v, want decided", res.Mode)
		}
		if res.Target != "desktop:9000" {
			t.Errorf("target = %q, want desktop", res.Target)
		}
		if res.Breakdown.Decision <= 0 || res.Breakdown.InputMove <= 0 {
			t.Errorf("decision/move not charged: %+v", res.Breakdown)
		}
	})
}

func TestProcessUnknownService(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		if err := sess.CreateObject("o.bin", "b", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.StoreObject("o.bin", nil, 1<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.Process("o.bin", "nonexistent", 999); !errors.Is(err, ErrServiceNotFound) {
			t.Errorf("got %v, want ErrServiceNotFound", err)
		}
	})
}

func TestProcessOnCloudInstance(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		// Only the cloud hosts the service.
		if _, err := tb.cloud.LaunchInstance("xl-1", cloudsim.ExtraLargeSpec("S3")); err != nil {
			t.Error(err)
			return
		}
		if err := tb.home.DeployCloudService(services.X264Convert(), "xl-1"); err != nil {
			t.Error(err)
			return
		}
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		if err := sess.CreateObject("movie.avi", "video", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.StoreObject("movie.avi", nil, 20<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		res, err := sess.Process("movie.avi", "x264", services.X264ConvertID)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Target != "cloud:xl-1" {
			t.Errorf("target = %q, want cloud:xl-1", res.Target)
		}
		if res.Breakdown.InputMove < 10*time.Second {
			t.Errorf("input move to cloud = %v; a 20 MB WAN upload should be slow", res.Breakdown.InputMove)
		}
		if res.OutputSize >= 20<<20 {
			t.Errorf("conversion output %d not smaller than input", res.OutputSize)
		}
	})
}

func TestKernelsEndToEnd(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		rng := rand.New(rand.NewSource(9))
		training := make([][]byte, 6)
		for i := range training {
			training[i] = make([]byte, 16<<10)
			rng.Read(training[i])
		}
		tb.atom.SetTrainingSet(training)
		if err := tb.atom.DeployService(services.FaceRecognize(), ""); err != nil {
			t.Error(err)
			return
		}
		if err := tb.atom.DeployService(services.X264Convert(), ""); err != nil {
			t.Error(err)
			return
		}
		tb.publish()
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()

		// frec: probe equal to training[3] must match index 3.
		if _, err := sess.StoreObjectData("probe.jpg", "image", training[3], StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		res, err := sess.Process("probe.jpg", "frec", services.FaceRecognizeID)
		if err != nil {
			t.Error(err)
			return
		}
		if res.MatchID != 3 {
			t.Errorf("frec matched %d, want 3", res.MatchID)
		}
		if string(res.Output) != strconv.Itoa(3) {
			t.Errorf("frec output %q", res.Output)
		}

		// x264: output must record the source length.
		video := make([]byte, 64<<10)
		rng.Read(video)
		if _, err := sess.StoreObjectData("clip.avi", "video", video, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		res, err = sess.Process("clip.avi", "x264", services.X264ConvertID)
		if err != nil {
			t.Error(err)
			return
		}
		srcLen, err := services.ConvertedSourceLen(res.Output)
		if err != nil {
			t.Error(err)
			return
		}
		if srcLen != int64(len(video)) {
			t.Errorf("converted source length %d, want %d", srcLen, len(video))
		}
	})
}

func TestDecisionPrefersFasterHostDespiteMoveCost(t *testing.T) {
	// Fig 8: conversion at the low-end owner (Town) vs VStore++ moving it
	// to the desktop (Topt): the desktop must win for sizeable videos.
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		for _, n := range []*Node{tb.atom, tb.desktop} {
			if err := n.DeployService(services.X264Convert(), ""); err != nil {
				t.Error(err)
				return
			}
		}
		tb.publish()
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		if err := sess.CreateObject("owned.avi", "video", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.StoreObject("owned.avi", nil, 30<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		res, err := sess.Process("owned.avi", "x264", services.X264ConvertID)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Target != "desktop:9000" {
			t.Errorf("decision chose %q, want desktop (faster despite movement)", res.Target)
		}
	})
}

func TestNodeDepartureRedistributesMetadata(t *testing.T) {
	tb := newTestbed(t, kv.Options{ReplicationFactor: 1})
	tb.run(func() {
		sess, _ := tb.atom.OpenSession()
		defer sess.Close()
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("churn-%d.bin", i)
			if err := sess.CreateObject(name, "b", nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := sess.StoreObject(name, nil, 1<<20, StoreOptions{Blocking: true}); err != nil {
				t.Error(err)
				return
			}
		}
		// The netbook leaves gracefully; metadata for every object must
		// still resolve from the survivors.
		if err := tb.home.RemoveNode("netbook:9000", true); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("churn-%d.bin", i)
			if _, _, err := tb.atom.getMeta(name); err != nil {
				t.Errorf("metadata for %s lost after departure: %v", name, err)
			}
		}
	})
}

func TestFederatedFetchAcrossHomes(t *testing.T) {
	// §VII(v): two Cloud4Home systems cooperating (neighborhood security).
	v := vclock.NewVirtual(epoch)
	v.Run(func() {
		homeA := NewHome(v, HomeOptions{Seed: 1})
		homeB := NewHome(v, HomeOptions{Seed: 2})
		a, err := homeA.AddNode(NodeConfig{Addr: "a1:9000", Machine: atomSpec("a1"), MandatoryBytes: GB})
		if err != nil {
			t.Error(err)
			return
		}
		b, err := homeB.AddNode(NodeConfig{Addr: "b1:9000", Machine: atomSpec("b1"), MandatoryBytes: GB})
		if err != nil {
			t.Error(err)
			return
		}
		homeA.Federate(homeB)

		sessB, _ := b.OpenSession()
		defer sessB.Close()
		data := []byte("evidence frame from home B")
		if _, err := sessB.StoreObjectData("camB/frame.jpg", "image", data, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		sessA, _ := a.OpenSession()
		defer sessA.Close()
		got, err := sessA.FetchObject("camB/frame.jpg")
		if err != nil {
			t.Errorf("federated fetch: %v", err)
			return
		}
		if !bytes.Equal(got.Data, data) {
			t.Error("federated payload corrupted")
		}
		if got.Source != "b1:9000" {
			t.Errorf("source = %q", got.Source)
		}
	})
}

func TestDeployServiceBelowSLARejected(t *testing.T) {
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		tiny, err := tb.home.AddNode(NodeConfig{
			Addr:    "tiny:9000",
			Machine: machine.Spec{Name: "tiny", Cores: 1, GHz: 1, MemMB: 64, Battery: 1},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := tiny.DeployService(services.FaceRecognize(), ""); err == nil {
			t.Error("deployment below the service's memory SLA succeeded")
		}
	})
}

func TestObjectMetaSerialization(t *testing.T) {
	m := ObjectMeta{Name: "x.bin", Type: "blob", Size: 42, Tags: []string{"t"}, Location: "s3://vstore/x.bin"}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalObjectMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.Location != m.Location || !got.InCloud() {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := UnmarshalObjectMeta([]byte("{bad")); err == nil {
		t.Fatal("garbage meta accepted")
	}
	home := ObjectMeta{Location: "atom:9000"}
	if home.InCloud() {
		t.Fatal("home location classified as cloud")
	}
}

func TestBatteryPolicyAvoidsDrainedNetbook(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	v.Run(func() {
		home := NewHome(v, HomeOptions{Seed: 5})
		drained, err := home.AddNode(NodeConfig{
			Addr:    "drained:9000",
			Machine: machine.Spec{Name: "drained", Cores: 4, GHz: 3.0, MemMB: 2048, Battery: 0.1},
		})
		if err != nil {
			t.Error(err)
			return
		}
		plugged, err := home.AddNode(NodeConfig{
			Addr:           "plugged:9000",
			Machine:        machine.Spec{Name: "plugged", Cores: 2, GHz: 1.5, MemMB: 2048, Battery: 1},
			MandatoryBytes: GB,
			DecisionPolicy: policy.BatterySaver{},
		})
		if err != nil {
			t.Error(err)
			return
		}
		for _, n := range []*Node{drained, plugged} {
			if err := n.DeployService(services.FaceDetect(), ""); err != nil {
				t.Error(err)
				return
			}
			_ = n.Monitor().PublishOnce()
		}
		sess, _ := plugged.OpenSession()
		defer sess.Close()
		if err := sess.CreateObject("img.jpg", "image", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.StoreObject("img.jpg", nil, 4<<20, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		res, err := sess.Process("img.jpg", "fdet", services.FaceDetectID)
		if err != nil {
			t.Error(err)
			return
		}
		// The drained node is faster but below the battery bar.
		if res.Target != "plugged:9000" {
			t.Errorf("battery policy chose %q", res.Target)
		}
	})
}
