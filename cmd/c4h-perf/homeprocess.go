//go:build linux

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/services"
)

const (
	processIters   = 4000 // per client, at scale 1
	processClients = 2
	processImages  = 60
	// storeEvery makes every eighth op of a client a store of a fresh
	// camera image; the rest are FetchProcess calls on the preloaded set.
	storeEvery = 8
	// cameraLag is how many of its own images a client keeps.
	cameraLag = 4
	imageMin  = 256 << 10
	imageMax  = 2 << 20
	instance  = "xl-1"
)

// procOp is one generated op of a home-process client: a FetchProcess of
// service svc on a preloaded image, or a store of size bytes of film.
type procOp struct {
	store bool
	image int // preloaded image to process
	svc   int // index into services.Builtin()
	off   int // where in the film the stored frame starts
	size  int
}

// processInputs are home-process's inputs. The image set, the film the
// cameras cut their frames from and the recognition training set belong
// to the testbed and are the same for every seed; the seed draws the op
// sequence — which image, which service, which frame.
type processInputs struct {
	images   [][]byte // the preloaded set
	names    []string
	film     []byte
	training [][]byte
	ops      [][]procOp // per client
}

// homeProcess is the surveillance loop on real bytes: cameras on two
// netbooks store images and run the built-in services on stored ones,
// with the services deployed on the desktop, netbook-1 and an EC2-XL
// instance.
type homeProcess struct {
	*processInputs
	tb       *cluster.Testbed
	sessions []*core.Session // one per node, for the preload
	clients  []*core.Session // netbook-2, netbook-3
}

// synthImage fills an image-like payload: 64-byte windows that are flat,
// textured (inside the detector's variance band) or noisy, so the
// detection kernel has something to find.
func synthImage(rng *rand.Rand, n int) []byte {
	img := make([]byte, n)
	for off := 0; off < n; off += 64 {
		base, amp := rng.Intn(64), []int{8, 128, 192}[rng.Intn(3)]
		end := off + 64
		if end > n {
			end = n
		}
		var r uint64
		for i := off; i < end; i++ {
			if i%8 == 0 {
				r = rng.Uint64()
			}
			img[i] = byte(base + int(byte(r))*amp>>8)
			r >>= 8
		}
	}
	return img
}

func prepareHomeProcess(seed int64, scale float64) (func() (testbed, error), error) {
	in := &processInputs{}
	trng := rand.New(rand.NewSource(testbedSeed))
	images := shrunk(processImages, scale, 6)
	for i := 0; i < images; i++ {
		in.images = append(in.images, synthImage(trng, imageMin+trng.Intn(imageMax-imageMin+1)))
		in.names = append(in.names, fmt.Sprintf("img/%03d.jpg", i))
	}
	in.film = synthImage(trng, 2*imageMax)
	for i := 0; i < 8; i++ {
		in.training = append(in.training, synthImage(trng, 32<<10))
	}
	// Every seed issues the same ops in a different order: each client
	// walks the (image, service) grid and an even ladder of frame sizes
	// equally often, shuffled. The mix of kernels and bytes is then the
	// same for every seed, and what differs is who meets whom.
	rng := rand.New(rand.NewSource(seed))
	iters := scaled(processIters, scale, 24)
	stores := iters / storeEvery
	svcs := len(services.Builtin())
	in.ops = make([][]procOp, processClients)
	for c := range in.ops {
		procs := make([]procOp, iters-stores)
		for k := range procs {
			procs[k] = procOp{image: k % images, svc: k / images % svcs}
		}
		rng.Shuffle(len(procs), func(i, j int) { procs[i], procs[j] = procs[j], procs[i] })
		frames := make([]procOp, stores)
		for k := range frames {
			size := imageMin + (imageMax-imageMin)*k/max(1, stores-1)
			frames[k] = procOp{store: true, size: size, off: rng.Intn(len(in.film) - size)}
		}
		rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
		for i := 0; i < iters; i++ {
			if i%storeEvery == storeEvery-1 {
				in.ops[c] = append(in.ops[c], frames[i/storeEvery])
			} else {
				in.ops[c] = append(in.ops[c], procs[i-i/storeEvery])
			}
		}
	}
	return func() (testbed, error) { return setupHomeProcess(in) }, nil
}

func setupHomeProcess(in *processInputs) (testbed, error) {
	tb, err := cluster.New(cluster.Options{Seed: testbedSeed})
	if err != nil {
		return nil, err
	}
	h := &homeProcess{processInputs: in, tb: tb}
	tb.Run(func() {
		if _, err = tb.Cloud.LaunchInstance(instance, cloudsim.ExtraLargeSpec("ec2-xl")); err != nil {
			return
		}
		for _, spec := range services.Builtin() {
			for _, n := range []*core.Node{tb.Desktop, tb.Netbooks[0]} {
				if err = n.DeployService(spec, "performance"); err != nil {
					return
				}
			}
			if err = tb.Home.DeployCloudService(spec, instance); err != nil {
				return
			}
		}
		for _, n := range tb.AllNodes() {
			n.SetTrainingSet(h.training)
			var s *core.Session
			if s, err = n.OpenSession(); err != nil {
				return
			}
			h.sessions = append(h.sessions, s)
		}
		if err = tb.PublishResources(); err != nil {
			return
		}
		for i, img := range h.images {
			s := h.sessions[i%len(h.sessions)]
			if _, err = s.StoreObjectData(h.names[i], "image", img, core.StoreOptions{Blocking: true}); err != nil {
				return
			}
		}
		for _, n := range tb.Netbooks[1 : 1+processClients] {
			var s *core.Session
			if s, err = n.OpenSession(); err != nil {
				return
			}
			h.clients = append(h.clients, s)
		}
	})
	if err != nil {
		h.close()
		return nil, fmt.Errorf("home-process set-up: %w", err)
	}
	return h, nil
}

func (h *homeProcess) close() {
	for _, s := range h.sessions {
		s.Close()
	}
	for _, s := range h.clients {
		s.Close()
	}
}

func (h *homeProcess) env() *probeEnv {
	sizes := make([]int64, len(h.images))
	for i, img := range h.images {
		sizes[i] = int64(len(img))
	}
	return &probeEnv{v: h.tb.V, home: h.tb.Home, nodes: h.tb.AllNodes(), names: h.names, sizes: sizes,
		images: h.images, training: h.training}
}

// outputSig is a cheap signature of a kernel's output: its length and a
// strided sample of its bytes, so the measured loop can keep one per op
// and the reference call can be made after the clock stops.
func outputSig(out []byte) uint64 {
	sig := uint64(len(out))
	for i := 0; i < len(out); i += 61 {
		sig = sig*1099511628211 + uint64(out[i])
	}
	return sig
}

// procRec extends opRec with what the kernel checks need.
type procRec struct {
	opRec
	op         procOp
	mode       core.ProcessMode
	detections int
	match      int
	sig        uint64
}

func (h *homeProcess) run(m *meter, rec *recorder) (*phase, error) {
	tb := h.tb
	specs := services.Builtin()
	recs := make([][]procRec, processClients)
	camNames := make([][]string, processClients)
	expected := 0
	for c, ops := range h.ops {
		recs[c] = make([]procRec, 0, len(ops)+len(ops)/storeEvery)
		stores := len(ops) / storeEvery
		for i := 0; i < stores; i++ {
			camNames[c] = append(camNames[c], fmt.Sprintf("cam/%d/%d.jpg", c, i))
		}
		expected += len(ops)
		if stores > cameraLag {
			expected += stores - cameraLag
		}
	}
	rec.open(processClients, 2*len(h.ops[0]))
	ph := &phase{layer: map[string]float64{}}
	processed := make([]processTally, processClients)
	storedT := make([]storeTally, processClients)
	now := func() time.Duration { return tb.V.Now().Sub(cluster.Epoch) }

	tb.Run(func() {
		before := readTraffic(tb.Home)
		virt0 := now()
		m.start(expected, meterSegments)
		var wg sync.WaitGroup
		for c := 0; c < processClients; c++ {
			c := c
			wg.Add(1)
			tb.V.Go(func() {
				defer wg.Done()
				tb.V.Sleep(time.Duration(c+1) * time.Microsecond)
				cl := simClient{id: c, sess: h.clients[c], now: now, m: m, rec: rec}
				stored := 0
				for i, op := range h.ops[c] {
					if op.store {
						name, data := camNames[c][stored], h.film[op.off:op.off+op.size]
						sp := rec.begin("store", c, i, now())
						res, err := cl.sess.StoreObjectData(name, "image", data, core.StoreOptions{Blocking: true})
						rec.end(sp, now(), part{"inter_domain", res.InterDomain}, part{"placement", res.Placement})
						m.tick()
						recs[c] = append(recs[c], procRec{opRec: opRec{kindStore, err == nil, res.Total, int64(len(data)), res.Target.String()}})
						stored++
						if err != nil {
							continue
						}
						if !storedT[c].add(res) {
							ph.violate("store %s: phases exceed total %v", name, res.Total)
						}
						if stored > cameraLag {
							recs[c] = append(recs[c], procRec{opRec: cl.delete(camNames[c][stored-1-cameraLag], i)})
						}
						continue
					}
					spec := specs[op.svc]
					sp := rec.begin("process."+spec.Name, c, i, now())
					res, err := cl.sess.FetchProcess(h.names[op.image], spec.Name, spec.ID)
					b := res.Breakdown
					rec.end(sp, now(),
						part{"decision", b.Decision}, part{"input_move", b.InputMove},
						part{"exec", b.Exec}, part{"output_move", b.OutputMove})
					m.tick()
					recs[c] = append(recs[c], procRec{
						opRec:      opRec{kindProcess, err == nil, b.Total, int64(len(h.images[op.image])), res.Target},
						op:         op,
						mode:       res.Mode,
						detections: res.Detections,
						match:      res.MatchID,
						sig:        outputSig(res.Output),
					})
					if err == nil && !processed[c].add(res) {
						ph.violate("process %s on %s: phases exceed total %v", spec.Name, h.names[op.image], b.Total)
					}
				}
			})
		}
		tb.V.Block(wg.Wait)
		m.stop()
		ph.clientElapsed = now() - virt0
		readTraffic(tb.Home).fill(ph.layer, before, float64(m.cost.ops))

		// Bytes fetched must equal bytes stored: read back what the
		// cameras still hold.
		for c, sess := range h.clients {
			var frames []procOp
			for _, op := range h.ops[c] {
				if op.store {
					frames = append(frames, op)
				}
			}
			for i := max(0, len(frames)-cameraLag); i < len(frames); i++ {
				res, err := sess.FetchObject(camNames[c][i])
				if f := frames[i]; err != nil || !bytes.Equal(res.Data, h.film[f.off:f.off+f.size]) {
					ph.violate("fetch %s: payload differs from what was stored (err %v)", camNames[c][i], err)
				}
			}
		}
	})

	// Kernel results must match a sequential reference call, made once
	// per (image, service) the run touched.
	type refKey struct{ image, svc int }
	type ref struct {
		detections, match int
		sig               uint64
	}
	refs := map[refKey]ref{}
	reference := func(k refKey) (ref, error) {
		if r, ok := refs[k]; ok {
			return r, nil
		}
		r := ref{match: -1}
		img := h.images[k.image]
		switch specs[k.svc].Name {
		case "fdet":
			hits, err := services.DetectFaces(img)
			if err != nil {
				return r, err
			}
			r.detections, r.sig = len(hits), outputSig(img)
		case "frec":
			best, err := services.RecognizeFace(img, h.training)
			if err != nil {
				return r, err
			}
			r.match, r.sig = best, outputSig([]byte(fmt.Sprint(best)))
		case "x264":
			out, err := services.ConvertVideo(img)
			if err != nil {
				return r, err
			}
			r.sig = outputSig(out)
		}
		refs[k] = r
		return r, nil
	}

	d := newDigester()
	var live int64
	for _, img := range h.images {
		live += int64(len(img))
	}
	for c := range recs {
		var mine []int64 // sizes of this client's stores, in order
		for _, r := range recs[c] {
			ph.attempted++
			if !r.ok {
				ph.failed++
			}
			d.num(int64(r.kind))
			d.num(int64(r.total))
			d.num(r.size)
			d.str(r.where)
			d.num(int64(r.mode))
			d.num(int64(r.detections))
			d.num(int64(r.match))
			d.num(int64(r.sig))
			switch {
			case r.kind == kindStore:
				mine = append(mine, r.size)
				if r.ok {
					ph.writes = append(ph.writes, ms(r.total))
					ph.payloadBytes += r.size
					live += r.size
				}
			case r.kind == kindDelete && r.ok:
				live -= mine[len(mine)-1-cameraLag]
			case r.kind == kindProcess && r.ok:
				ph.reads = append(ph.reads, ms(r.total))
				ph.payloadBytes += r.size
				want, err := reference(refKey{r.op.image, r.op.svc})
				if err != nil {
					return nil, err
				}
				if r.detections != want.detections || r.match != want.match || r.sig != want.sig {
					ph.violate("%s on %s at %s: result differs from the sequential reference",
						specs[r.op.svc].Name, h.names[r.op.image], r.where)
				}
			}
		}
	}
	ph.digest = d.sum()

	var processes processTally
	var stores storeTally
	for c := range processed {
		processes.merge(processed[c])
		stores.merge(storedT[c])
	}
	processes.fill(ph.layer)
	stores.fill(ph.layer)
	ph.layer["core.process.virt_p99_ms"] = percentile(ph.reads, 0.99)
	ph.layer["core.store.virt_p99_ms"] = percentile(ph.writes, 0.99)
	checkOccupancy(ph, tb.AllNodes(), 0, live)
	return ph, nil
}
