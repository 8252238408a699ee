package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloud4home/internal/kv"
	"cloud4home/internal/services"
	"cloud4home/internal/vclock"
)

// coalesceRun stores one object with a real payload on the desktop and
// has k concurrent sessions on the netbook fetch it (staggered 500 µs
// apart), returning each session's payload and fetch latency plus the
// netbook's coalesced-fetch counter.
func coalesceRun(t *testing.T, coalesce bool, k int) ([][]byte, []time.Duration, int64) {
	t.Helper()
	v := vclock.NewVirtual(epoch)
	var payloads [][]byte
	var durs []time.Duration
	var coalesced int64
	v.Run(func() {
		home := NewHome(v, HomeOptions{Seed: 7, CoalesceFetch: coalesce})
		desktop, err := home.AddNode(NodeConfig{
			Addr: "desktop:9000", Machine: desktopSpec(),
			MandatoryBytes: 8 * GB, VoluntaryBytes: 8 * GB,
		})
		if err != nil {
			t.Error(err)
			return
		}
		netbook, err := home.AddNode(NodeConfig{
			Addr: "netbook:9000", Machine: atomSpec("netbook"),
			MandatoryBytes: 2 * GB, VoluntaryBytes: 1 * GB,
		})
		if err != nil {
			t.Error(err)
			return
		}
		for _, n := range home.Nodes() {
			_ = n.Monitor().PublishOnce()
		}

		writer, err := desktop.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer writer.Close()
		data := bytes.Repeat([]byte("hot-object-"), 64<<10) // ~704 KB
		if _, err := writer.StoreObjectData("hot.bin", "b", data, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}

		payloads = make([][]byte, k)
		durs = make([]time.Duration, k)
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			w := w
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				sess, err := netbook.OpenSession()
				if err != nil {
					t.Error(err)
					return
				}
				defer sess.Close()
				v.Sleep(time.Duration(w) * 500 * time.Microsecond)
				start := v.Now()
				fr, err := sess.FetchObject("hot.bin")
				if err != nil {
					t.Error(err)
					return
				}
				payloads[w] = fr.Data
				durs[w] = v.Now().Sub(start)
			})
		}
		v.Block(wg.Wait)
		coalesced = netbook.OpStats().CoalescedFetches
	})
	if t.Failed() {
		t.FailNow()
	}
	return payloads, durs, coalesced
}

// TestCoalescedFetchSharesOneTransfer: with the gate on, k concurrent
// fetches of one hot object run exactly one wire transfer — the k-1
// followers join it — every session still gets the full payload, and the
// whole run (leader election, waiter wake order, per-waiter charges) is
// deterministic across repetitions.
func TestCoalescedFetchSharesOneTransfer(t *testing.T) {
	const k = 4
	payloads, durs, coalesced := coalesceRun(t, true, k)

	if coalesced != k-1 {
		t.Fatalf("coalesced %d fetches, want %d (one leader, rest followers)", coalesced, k-1)
	}
	want := bytes.Repeat([]byte("hot-object-"), 64<<10)
	for w, p := range payloads {
		if !bytes.Equal(p, want) {
			t.Fatalf("session %d got %d bytes, want %d identical to the stored payload", w, len(p), len(want))
		}
	}
	// Followers must finish with the leader: they are charged exactly the
	// virtual time until the shared transfer lands, so each later arrival
	// waits strictly less.
	for w := 2; w < k; w++ {
		if durs[w] >= durs[w-1] {
			t.Fatalf("follower %d waited %v, not below follower %d's %v", w, durs[w], w-1, durs[w-1])
		}
	}

	for trial := 0; trial < 2; trial++ {
		p2, d2, c2 := coalesceRun(t, true, k)
		if c2 != coalesced {
			t.Fatalf("trial %d coalesced %d, first run %d", trial, c2, coalesced)
		}
		for w := range durs {
			if d2[w] != durs[w] {
				t.Fatalf("trial %d: session %d latency %v, first run %v", trial, w, d2[w], durs[w])
			}
			if !bytes.Equal(p2[w], payloads[w]) {
				t.Fatalf("trial %d: session %d payload differs from first run", trial, w)
			}
		}
	}

	// Gate off: no coalescing happens and every session pays for its own
	// transfer, so the concurrent batch is strictly slower.
	pOff, dOff, cOff := coalesceRun(t, false, k)
	if cOff != 0 {
		t.Fatalf("gate off but %d fetches coalesced", cOff)
	}
	for w, p := range pOff {
		if !bytes.Equal(p, want) {
			t.Fatalf("gate off: session %d payload corrupt", w)
		}
	}
	if dOff[k-1] <= durs[k-1] {
		t.Fatalf("solo transfers (%v) not slower than coalesced (%v)", dOff[k-1], durs[k-1])
	}
}

// processBedImage is the size of the images processBed stores.
const processBedImage = 1 << 20

// processBed is newTestbed with the three built-in services on the
// desktop only, a training set on every node, and one materialised 1 MB
// image stored twice: on the desktop, where a FetchProcess from the atom
// runs at the owner, and on the netbook, which hosts no service, so the
// decision moves the image to the desktop. It returns the image's name
// per mode.
func processBed(t testing.TB) (*testbed, map[ProcessMode]string) {
	t.Helper()
	tb := newTestbed(t, kv.Options{})
	names := map[ProcessMode]string{ModeOwner: "owned.jpg", ModeDecided: "else.jpg"}
	tb.run(func() {
		for _, spec := range services.Builtin() {
			if err := tb.desktop.DeployService(spec, "performance"); err != nil {
				t.Error(err)
				return
			}
		}
		rng := rand.New(rand.NewSource(21))
		training := make([][]byte, 8)
		for i := range training {
			training[i] = make([]byte, 32<<10)
			rng.Read(training[i])
		}
		image := make([]byte, processBedImage)
		rng.Read(image)
		for _, n := range tb.home.Nodes() {
			n.SetTrainingSet(training)
		}
		for mode, holder := range map[ProcessMode]*Node{ModeOwner: tb.desktop, ModeDecided: tb.netbook} {
			sess, err := holder.OpenSession()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := sess.StoreObjectData(names[mode], "image", image, StoreOptions{Blocking: true}); err != nil {
				t.Error(err)
			}
			sess.Close()
		}
		tb.publish()
	})
	if t.Failed() {
		t.FailNow()
	}
	return tb, names
}

// BenchmarkFetchProcessMaterialised is the camera loop on real bytes, one
// service and one §III-B case at a time: what `make profile-process`
// profiles, and where a payload copy or a slow kernel shows as B/op and
// MB/s.
func BenchmarkFetchProcessMaterialised(b *testing.B) {
	tb, names := processBed(b)
	for _, spec := range services.Builtin() {
		for _, mode := range []ProcessMode{ModeOwner, ModeDecided} {
			b.Run(spec.Name+"/"+mode.String(), func(b *testing.B) {
				b.SetBytes(processBedImage)
				b.ReportAllocs()
				tb.run(func() {
					sess, err := tb.atom.OpenSession()
					if err != nil {
						b.Error(err)
						return
					}
					defer sess.Close()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, err := sess.FetchProcess(names[mode], spec.Name, spec.ID)
						if err != nil || res.Mode != mode {
							b.Errorf("mode %v, err %v", res.Mode, err)
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkFetchProcessTwoSessions is home-process in miniature: two
// clients on one virtual clock, the atom and the netbook, each cycling
// fdet, frec and x264 over the 1 MB image (at the owner and decided
// respectively), b.N operations between them. It is the case kernels run
// off the clock for: while one client's kernel runs on the host, the other
// client's simulated work goes on. `make profile-process` profiles it.
func BenchmarkFetchProcessTwoSessions(b *testing.B) {
	tb, names := processBed(b)
	specs := services.Builtin()
	b.SetBytes(processBedImage)
	b.ReportAllocs()
	tb.run(func() {
		clients := []struct {
			n    *Node
			name string
			ops  int
		}{{tb.atom, names[ModeOwner], (b.N + 1) / 2}, {tb.netbook, names[ModeDecided], b.N / 2}}
		// The last client to finish fires the join while still registered
		// with the clock (never Block(wg.Wait) on a virtual clock).
		done := tb.v.NewEvent()
		var left atomic.Int32
		left.Store(int32(len(clients)))
		b.ResetTimer()
		for _, c := range clients {
			tb.v.Go(func() {
				defer func() {
					if left.Add(-1) == 0 {
						done.Fire()
					}
				}()
				sess, err := c.n.OpenSession()
				if err != nil {
					b.Error(err)
					return
				}
				defer sess.Close()
				for i := 0; i < c.ops; i++ {
					spec := specs[i%len(specs)]
					if _, err := sess.FetchProcess(c.name, spec.Name, spec.ID); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
		done.Wait()
	})
}

// TestFetchProcessCopiesNoPayload is the budget that keeps the copies
// out: frec returns a few digits, so a FetchProcess of a 1 MB image that
// allocates anywhere near the image's size has copied it on the way.
func TestFetchProcessCopiesNoPayload(t *testing.T) {
	tb, names := processBed(t)
	tb.run(func() {
		sess, err := tb.atom.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Close()
		for _, mode := range []ProcessMode{ModeOwner, ModeDecided} {
			const runs = 8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				res, err := sess.FetchProcess(names[mode], "frec", services.FaceRecognizeID)
				if err != nil || res.Mode != mode {
					t.Errorf("mode %v, err %v", res.Mode, err)
					return
				}
			}
			runtime.ReadMemStats(&after)
			if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 64<<10 {
				t.Errorf("%v: frec FetchProcess of a 1 MB image allocates %d B/op, budget 64 KB", mode, perOp)
			}
		}
	})
}
