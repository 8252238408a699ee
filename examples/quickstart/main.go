// Quickstart: build a three-device home cloud with a remote public cloud
// attached, store objects under different placement policies, fetch them
// back with the cost breakdown, and run a processing service — the whole
// VStore++ API in one file.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	c4h "cloud4home"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The virtual clock makes the demo deterministic and instant; swap in
	// c4h.NewPacedClock() to let every modeled cost take wall time.
	clock := c4h.NewVirtualClock(time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC))
	var runErr error
	clock.Run(func() { runErr = demo(clock) })
	return runErr
}

func demo(clock *c4h.VirtualClock) error {
	home := c4h.NewHome(clock, c4h.HomeOptions{
		Seed: 42,
		KV:   c4h.KVOptions{ReplicationFactor: 1, CacheEnabled: true},
	})
	cloud := c4h.NewCloud(clock, home.Net())
	home.AttachCloud(cloud)

	// Three home devices: two netbooks and a desktop.
	netbook, err := home.AddNode(c4h.NodeConfig{
		Addr:           "netbook:9000",
		Machine:        c4h.MachineSpec{Name: "netbook", Cores: 1, GHz: 1.66, MemMB: 512, Battery: 0.8},
		MandatoryBytes: 2 << 30,
		VoluntaryBytes: 1 << 30,
		CloudGateway:   true,
	})
	if err != nil {
		return err
	}
	if _, err := home.AddNode(c4h.NodeConfig{
		Addr:           "tablet:9000",
		Machine:        c4h.MachineSpec{Name: "tablet", Cores: 2, GHz: 1.0, MemMB: 1024, Battery: 0.5},
		MandatoryBytes: 1 << 30,
		VoluntaryBytes: 1 << 30,
	}); err != nil {
		return err
	}
	desktop, err := home.AddNode(c4h.NodeConfig{
		Addr:           "desktop:9000",
		Machine:        c4h.MachineSpec{Name: "desktop", Cores: 4, GHz: 2.3, MemMB: 4096, Battery: 1},
		MandatoryBytes: 8 << 30,
		VoluntaryBytes: 8 << 30,
	})
	if err != nil {
		return err
	}
	if err := desktop.DeployService(c4h.X264ConvertService(), "performance"); err != nil {
		return err
	}
	for _, n := range home.Nodes() {
		if err := n.Monitor().PublishOnce(); err != nil {
			return err
		}
	}

	sess, err := netbook.OpenSession()
	if err != nil {
		return err
	}
	defer sess.Close()

	// 1. Default placement: the local mandatory bin.
	if err := sess.CreateObject("notes.txt", "text", []string{"personal"}); err != nil {
		return err
	}
	sr, err := sess.StoreObject("notes.txt", []byte("remember the milk"), 0, c4h.StoreOptions{Blocking: true})
	if err != nil {
		return err
	}
	fmt.Printf("stored notes.txt -> %s (%v)\n", sr.Location, sr.Target)

	// 2. Size policy: big media goes to the remote cloud.
	if err := sess.CreateObject("movie.avi", "video/avi", nil); err != nil {
		return err
	}
	sr, err = sess.StoreObject("movie.avi", nil, 50<<20, c4h.StoreOptions{
		Blocking: true,
		Policy:   c4h.SizeThresholdPolicy{RemoteBytes: 20 << 20},
	})
	if err != nil {
		return err
	}
	fmt.Printf("stored movie.avi (50 MB) -> %s (%v)\n", sr.Location, sr.Target)

	// 3. Privacy policy: .mp3 stays home even though it is large.
	if err := sess.CreateObject("mixtape.mp3", "audio/mp3", nil); err != nil {
		return err
	}
	sr, err = sess.StoreObject("mixtape.mp3", nil, 40<<20, c4h.StoreOptions{
		Blocking: true,
		Policy:   c4h.PrivacyTypesPolicy{PrivateSuffixes: []string{".mp3"}},
	})
	if err != nil {
		return err
	}
	fmt.Printf("stored mixtape.mp3 (40 MB, private) -> %s (%v)\n", sr.Location, sr.Target)

	// 4. Fetches are location transparent; the breakdown shows the cost.
	for _, name := range []string{"notes.txt", "movie.avi", "mixtape.mp3"} {
		fr, err := sess.FetchObject(name)
		if err != nil {
			return err
		}
		fmt.Printf("fetched %-12s from %-22s total=%-8v (dht=%v internode=%v interdomain=%v)\n",
			name, fr.Source, fr.Breakdown.Total.Round(time.Millisecond),
			fr.Breakdown.DHTLookup.Round(time.Millisecond),
			fr.Breakdown.InterNode.Round(time.Millisecond),
			fr.Breakdown.InterDomain.Round(time.Millisecond))
	}

	// 5. Processing: the decision layer routes the conversion to the
	// desktop even though the netbook issued the request.
	pr, err := sess.Process("movie.avi", "x264", c4h.X264ConvertID)
	if err != nil {
		return err
	}
	fmt.Printf("converted movie.avi at %s in %v (decision %v, move %v, exec %v)\n",
		pr.Target, pr.Breakdown.Total.Round(time.Second),
		pr.Breakdown.Decision.Round(time.Millisecond),
		pr.Breakdown.InputMove.Round(time.Second),
		pr.Breakdown.Exec.Round(time.Second))
	return nil
}
