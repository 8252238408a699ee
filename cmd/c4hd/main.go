// Command c4hd hosts a Cloud4Home home cloud and serves the VStore++
// command protocol over TCP. The home devices run in-process on the real
// clock — as in the paper's prototype, where every VM ran on one testbed
// — with calibrated machine specs for netbooks and a desktop, built-in
// services (face detection/recognition, x264 conversion) deployed, and an
// optional simulated remote cloud attached.
//
// Usage:
//
//	c4hd [-listen :7070] [-netbooks 3] [-desktop] [-cloud] [-seed 1]
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

func run() error {
	var (
		listen   = flag.String("listen", ":7070", "TCP address to serve the command protocol on")
		netbooks = flag.Int("netbooks", 3, "number of netbook-class home devices")
		desktop  = flag.Bool("desktop", true, "include the quad-core desktop")
		cloud    = flag.Bool("cloud", true, "attach the simulated remote public cloud")
		seed     = flag.Int64("seed", 1, "seed for simulated network jitter")
		dataDir  = flag.String("data", "", "back object bins with files under this directory (empty = in-memory)")
		workers  = flag.Int("workers", 0, "compute-plane simulated strand width (0/1 = paper's intrinsic Task.Parallelism model)")
		overlap  = flag.Bool("overlap", false, "overlap input movement with execution (process-as-pages-arrive)")
		spec     = flag.Bool("speculate", false, "hedge process operations onto the top two candidates")
	)
	flag.Parse()
	if *netbooks < 1 {
		return fmt.Errorf("need at least one netbook, got %d", *netbooks)
	}

	home := core.NewHome(vclock.Real{}, core.HomeOptions{
		Seed:   *seed,
		Config: core.Config{Workers: *workers, Overlap: *overlap, Speculation: *spec},
	})
	if *cloud {
		c := cloudsim.New(vclock.Real{}, home.Net())
		home.AttachCloud(c)
		if _, err := c.LaunchInstance("xl-1", cloudsim.ExtraLargeSpec("ec2-xl")); err != nil {
			return err
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
			return err
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
			return err
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
			return err
		}
		n.Monitor().Start()
	}
	if home.Cloud() != nil {
		for _, spec := range services.Builtin() {
			if err := home.DeployCloudService(spec, "xl-1"); err != nil {
				return err
			}
		}
	}

	srv := daemon.NewServer(home)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(*listen) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("c4hd: home cloud up with %d nodes on %s (cloud=%v)", len(nodes), *listen, *cloud)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		log.Print("c4hd: shutting down")
		srv.Close()
		for _, n := range nodes {
			n.Monitor().Stop()
		}
		return nil
	}
}
