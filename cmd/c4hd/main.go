// Command c4hd hosts a Cloud4Home home cloud and serves the VStore++
// command protocol over TCP. The home devices run in-process on a virtual
// clock — as in the paper's prototype, where every VM ran on one testbed
// — with calibrated machine specs for netbooks and a desktop, built-in
// services (face detection/recognition, x264 conversion) deployed, and an
// optional simulated remote cloud attached. Set-up, the monitors and
// every client op run as actors on that clock. Set-up runs unpaced, at
// host speed, since no client can observe it; the clock is paced to the
// wall clock from the instant the listener opens, so every client op
// takes its modeled time. SIGINT or SIGTERM closes the server and ends
// the clock.
//
// Usage:
//
//	c4hd [-listen :7070] [-netbooks 3] [-desktop] [-cloud] [-seed 1]
//	     [-data dir] [-workers 0] [-overlap] [-speculate]
//
// Interact with it using the c4h CLI.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/daemon"
	"cloud4home/internal/services"
	"cloud4home/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

var (
	listen    = flag.String("listen", ":7070", "TCP address to serve the command protocol on")
	netbooks  = flag.Int("netbooks", 3, "number of netbook-class home devices")
	desktop   = flag.Bool("desktop", true, "include the quad-core desktop")
	cloud     = flag.Bool("cloud", true, "attach the simulated remote public cloud")
	seed      = flag.Int64("seed", 1, "seed for simulated network jitter")
	dataDir   = flag.String("data", "", "back object bins with files under this directory (empty = in-memory)")
	workers   = flag.Int("workers", 0, "compute-plane simulated strand width (0/1 = paper's intrinsic Task.Parallelism model)")
	overlap   = flag.Bool("overlap", false, "overlap input movement with execution (process-as-pages-arrive)")
	speculate = flag.Bool("speculate", false, "hedge process operations onto the top two candidates")
)

func run() error {
	flag.Parse()
	if *netbooks < 1 {
		return fmt.Errorf("need at least one netbook, got %d", *netbooks)
	}
	clock := vclock.NewVirtual(time.Now())
	var err error
	clock.Run(func() { err = serve(clock) })
	return err
}

// serve builds the home cloud on the unpaced clock, paces the clock and
// serves the home until a signal or a listener error. It runs as Run's
// actor and receives its end from an inbox, so the clock serves the
// connections' ops meanwhile; returning ends the clock without waiting for
// a monitor's next tick. The server is closed off the clock before the end
// is delivered: Close waits for the residents that serve ops in flight.
// Its last log line gives the paced clock's wakes and their lateness.
func serve(clock *vclock.Virtual) error {
	start, hostStart := clock.Now(), time.Now()
	home, err := buildHome(clock)
	if err != nil {
		return err
	}
	setUp, hostSetUp := clock.Now().Sub(start), time.Since(hostStart)
	// Pacing starts here, before the first op can arrive; unpaced, the
	// monitors alone would push virtual time ahead without end.
	clock.Pace()

	srv := daemon.NewServer(home)
	end := vclock.NewInbox[error](clock)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(*listen) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		var err error
		select {
		case err = <-served:
		case <-sig:
		}
		srv.Close()
		end.Deliver(err)
	}()
	log.Printf("c4hd: home cloud up with %d nodes on %s (cloud=%v); set-up took %v modeled, %v on the host",
		len(home.Nodes()), *listen, *cloud, setUp, hostSetUp.Round(time.Microsecond))
	err = end.Receive()
	var mean time.Duration
	if clock.Wakes > 0 {
		mean = clock.LateSum / time.Duration(clock.Wakes)
	}
	log.Printf("c4hd: shut down; the paced clock woke %d times, late by %v on average and %v at most",
		clock.Wakes, mean.Round(time.Microsecond), clock.LateMax.Round(time.Microsecond))
	return err
}

// buildHome builds the home cloud the flags describe on clock: the
// simulated public cloud and its instance, the home nodes, the built-in
// services on each, and each node's first resource publish and monitor.
// It runs as an actor; on an unpaced clock it is a deterministic function
// of the flags, ending at the same virtual instant every time.
func buildHome(clock *vclock.Virtual) (*core.Home, error) {
	home := core.NewHome(clock, core.HomeOptions{
		Seed:   *seed,
		Config: core.Config{Workers: *workers, Overlap: *overlap, Speculation: *speculate},
	})
	if *cloud {
		c := cloudsim.New(clock, home.Net())
		home.AttachCloud(c)
		if _, err := c.LaunchInstance("xl-1", cloudsim.ExtraLargeSpec("ec2-xl")); err != nil {
			return nil, err
		}
	}

	nodeDir := func(name string) string {
		if *dataDir == "" {
			return ""
		}
		return filepath.Join(*dataDir, name)
	}
	var nodes []*core.Node
	for i := 0; i < *netbooks; i++ {
		addr := fmt.Sprintf("netbook-%d:9000", i+1)
		n, err := home.AddNode(core.NodeConfig{
			Addr:           addr,
			Machine:        cluster.NetbookSpec(fmt.Sprintf("netbook-%d", i+1)),
			MandatoryBytes: 4 * cluster.GB,
			VoluntaryBytes: 2 * cluster.GB,
			CloudGateway:   i == 0,
			DataDir:        nodeDir(fmt.Sprintf("netbook-%d", i+1)),
		})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	if *desktop {
		n, err := home.AddNode(core.NodeConfig{
			Addr:           "desktop:9000",
			Machine:        cluster.DesktopSpec(),
			MandatoryBytes: 16 * cluster.GB,
			VoluntaryBytes: 16 * cluster.GB,
			DataDir:        nodeDir("desktop"),
		})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}

	// Deploy the built-in services on every capable node; training data
	// for recognition is synthesised deterministically.
	training := make([][]byte, 8)
	rng := rand.New(rand.NewSource(*seed))
	for i := range training {
		training[i] = make([]byte, 32<<10)
		rng.Read(training[i])
	}
	for _, n := range nodes {
		n.SetTrainingSet(training)
		for _, spec := range services.Builtin() {
			if err := n.DeployService(spec, "performance"); err != nil {
				log.Printf("skip %s on %s: %v", spec.Name, n.Addr(), err)
			}
		}
		if err := n.Monitor().PublishOnce(); err != nil {
			return nil, err
		}
		n.Monitor().Start()
	}
	if home.Cloud() != nil {
		for _, spec := range services.Builtin() {
			if err := home.DeployCloudService(spec, "xl-1"); err != nil {
				return nil, err
			}
		}
	}
	return home, nil
}
