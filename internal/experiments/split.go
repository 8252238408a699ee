package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/services"
)

// SplitConfig parameterises the §V-B joint home/remote processing
// experiment: "an application where a sequence of images is to be
// compared against an existing image dataset, for instance using a face
// recognition algorithm".
type SplitConfig struct {
	Seed int64
	// Images is the sequence length.
	Images int
	// ImageSize is each image's size.
	ImageSize int64
	// RemoteWorkers is the upload/processing pipeline depth for the
	// remote scenario.
	RemoteWorkers int
}

// DefaultSplit matches the paper's scenario scale (a 60 MB home dataset:
// 30 × 2 MB images).
func DefaultSplit(seed int64) SplitConfig {
	return SplitConfig{Seed: seed, Images: 30, ImageSize: 2 * MB, RemoteWorkers: 3}
}

// SplitResult reproduces the three scenarios: "(i) the image sequence is
// processed at home ... (ii) the processing is performed on EC2 instances
// ... (iii) the sequence processing is split between the home and remote
// cloud. The resulting processing times ... are 162 sec, 127 sec, and 98
// sec, respectively."
type SplitResult struct {
	Home   time.Duration
	Remote time.Duration
	Split  time.Duration
	// HomeShare is the fraction of images processed at home in the split
	// scenario.
	HomeShare float64
}

// RunSplit executes all three scenarios.
func RunSplit(cfg SplitConfig) (_ *SplitResult, err error) {
	defer catch(&err)
	res := &SplitResult{Home: runSplitScenario(cfg, 1.0), Remote: runSplitScenario(cfg, 0.0)}
	// Split "roughly proportional to the amount of home vs. remote
	// resources": proportional to the measured processing rates.
	hRate := float64(cfg.Images) / res.Home.Seconds()
	rRate := float64(cfg.Images) / res.Remote.Seconds()
	res.HomeShare = hRate / (hRate + rRate)
	res.Split = runSplitScenario(cfg, res.HomeShare)
	return res, nil
}

// runSplitScenario processes the image sequence with homeShare of the
// images handled sequentially on a home netbook and the rest pipelined
// through the EC2 instance, both concurrently, and returns the elapsed
// time.
func runSplitScenario(cfg SplitConfig, homeShare float64) time.Duration {
	names := make([]string, cfg.Images)
	homeCount := int(float64(cfg.Images)*homeShare + 0.5)
	jobs := &jobQueue{limit: cfg.Images, next: homeCount}
	var home *core.Session
	var elapsed time.Duration
	check(scenario{
		name: fmt.Sprintf("split scenario (home share %.2f)", homeShare),
		opts: cluster.Options{Seed: cfg.Seed},
		setup: func(e *env) {
			// Deploy recognition at home (requesting netbook) and the cloud.
			check(e.Netbooks[0].DeployService(services.FaceRecognize(), "performance"))
			must(e.Cloud.LaunchInstance("xl", cloudsim.ExtraLargeSpec("S3")))
			check(e.Home.DeployCloudService(services.FaceRecognize(), "xl"))
			check(e.PublishResources())
			home = e.open(e.Netbooks[0])
			// The image sequence lives in the home cloud, distributed across
			// devices (it was captured there).
			for i := range names {
				names[i] = fmt.Sprintf("split/img-%03d.jpg", i)
				put(e.open(e.nodes[i%len(e.nodes)]), names[i], "image", nil, cfg.ImageSize, blocking)
			}
		},
		// Client 0 is the home half, sequential on the requesting netbook's
		// session; the others pipeline the remote half through the EC2
		// instance from sessions of their own. All start at the first
		// instant: the remote workers are interchangeable, so the order in
		// which they take jobs cannot show.
		clients: 1 + cfg.RemoteWorkers,
		at: func(e *env, w int) *core.Node {
			if w == 0 {
				return nil
			}
			return e.Netbooks[0]
		},
		start: func(int) time.Duration { return 0 },
		client: func(_ *env, w int, worker *core.Session) {
			if w == 0 {
				for i := 0; i < homeCount; i++ {
					must(home.FetchProcess(names[i], "frec", services.FaceRecognizeID))
				}
				return
			}
			for i, ok := jobs.take(); ok; i, ok = jobs.take() {
				must(worker.ProcessAt(names[i], "frec", services.FaceRecognizeID, "cloud:xl"))
			}
		},
		fold: func(e *env) { elapsed = e.V.Now().Sub(e.start) },
	}.run())
	return elapsed
}

// Table renders the three scenario times.
func (r *SplitResult) Table() Table {
	return Table{
		Title:   "§V-B: Joint usage of home and remote resources (image sequence processing)",
		Headers: []string{"Scenario", "Time(s)", "Paper(s)"},
		Rows: [][]string{
			{"home only", Seconds(r.Home), "162"},
			{"remote only (EC2)", Seconds(r.Remote), "127"},
			{fmt.Sprintf("split (%.0f%% home)", r.HomeShare*100), Seconds(r.Split), "98"},
		},
	}
}
