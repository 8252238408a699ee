package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/services"
)

// Fig7Config parameterises the service-placement experiment.
type Fig7Config struct {
	Seed int64
	// Sizes are the image sizes (paper: 0.25, 0.5, 1, 2 MB).
	Sizes []int64
}

// DefaultFig7 matches the paper's sweep.
func DefaultFig7(seed int64) Fig7Config {
	return Fig7Config{
		Seed:  seed,
		Sizes: []int64{MB / 4, MB / 2, 1 * MB, 2 * MB},
	}
}

// Fig7Row is one image size's pipeline time at each host.
type Fig7Row struct {
	Size int64
	// S1, S2, S3 are the FDet+FRec pipeline completion times when forced
	// onto each host, measured from S1 (the image's owner).
	S1, S2, S3 time.Duration
	// Best is the host with the lowest time.
	Best string
}

// Fig7Result reproduces Figure 7: "Importance of service placement" —
// the home-surveillance pipeline (CPU-intensive FDet, memory-intensive
// FRec) on S1 (512 MB / 1 vCPU Atom), S2 (128 MB multi-vCPU quad-core),
// and S3 (EC2 extra-large), across image sizes.
type Fig7Result struct {
	Rows []Fig7Row
}

// RunFig7 builds the three-host deployment and measures every placement
// of the pipeline for every size. The FRec training data is assumed
// available at all processing locations, as in the paper.
func RunFig7(cfg Fig7Config) (_ *Fig7Result, err error) {
	defer catch(&err)
	res := &Fig7Result{}
	check(scenario{
		name: "fig7",
		opts: cluster.Options{Seed: cfg.Seed},
		nodes: []core.NodeConfig{
			{Addr: "s1:9000", Machine: cluster.S1Spec(), MandatoryBytes: cluster.GB, VoluntaryBytes: cluster.GB, CloudGateway: true},
			{Addr: "s2:9000", Machine: cluster.S2Spec(), MandatoryBytes: cluster.GB, VoluntaryBytes: cluster.GB},
		},
		setup: func(e *env) {
			must(e.Cloud.LaunchInstance("s3", cluster.S3Spec()))
			for _, spec := range []services.Spec{services.FaceDetect(), services.FaceRecognize()} {
				for _, n := range e.nodes {
					check(n.DeployService(spec, "performance"))
				}
				check(e.Home.DeployCloudService(spec, "s3"))
			}
			check(e.Home.PublishAll())

			sess := e.open(e.nodes[0])
			names := []string{"fdet", "frec"}
			ids := []uint32{services.FaceDetectID, services.FaceRecognizeID}
			for _, size := range cfg.Sizes {
				// The captured image lives on S1 (the camera's node).
				obj := fmt.Sprintf("fig7/img-%dKB.jpg", size>>10)
				put(sess, obj, "image", nil, size, blocking)
				row := Fig7Row{Size: size}
				for _, host := range []struct {
					target string
					dst    *time.Duration
				}{{"s1:9000", &row.S1}, {"s2:9000", &row.S2}, {"cloud:s3", &row.S3}} {
					*host.dst = must(sess.ProcessPipelineAt(obj, names, ids, host.target)).Breakdown.Total
				}
				switch {
				case row.S1 <= row.S2 && row.S1 <= row.S3:
					row.Best = "S1"
				case row.S2 <= row.S3:
					row.Best = "S2"
				default:
					row.Best = "S3"
				}
				res.Rows = append(res.Rows, row)
			}
		},
	}.run())
	return res, nil
}

// Table renders the placement matrix.
func (r *Fig7Result) Table() Table {
	t := Table{
		Title:   "Figure 7: Importance of service placement (FDet+FRec pipeline from S1, seconds)",
		Headers: []string{"Image(MB)", "S1(s)", "S2(s)", "S3/EC2(s)", "Best"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", float64(row.Size)/float64(MB)),
			Seconds(row.S1), Seconds(row.S2), Seconds(row.S3), row.Best,
		})
	}
	return t
}
