package experiments

import (
	"fmt"
	"time"

	"cloud4home/internal/cluster"
	"cloud4home/internal/core"
	"cloud4home/internal/services"
)

// Fig8Config parameterises the dynamic-request-routing experiment.
type Fig8Config struct {
	Seed int64
	// Sizes are the video sizes converted.
	Sizes []int64
}

// DefaultFig8 sweeps representative video sizes.
func DefaultFig8(seed int64) Fig8Config {
	return Fig8Config{
		Seed:  seed,
		Sizes: []int64{5 * MB, 10 * MB, 20 * MB, 40 * MB},
	}
}

// Fig8Row is one video size's Town vs Topt comparison.
type Fig8Row struct {
	Size int64
	// Town is the conversion time when the service runs at the video's
	// low-end owner node.
	Town time.Duration
	// Topt is the time when "VStore++'s mechanisms for dynamic resource
	// discovery ... determine that a third, desktop node, is most
	// suitable", including data movement and the decision algorithm.
	Topt time.Duration
	// Chosen is the node the decision picked.
	Chosen string
}

// Fig8Result reproduces Figure 8: "Feasibility of dynamic request
// routing" — .avi→.mp4 conversion (x264) at the owner vs the
// dynamically-selected desktop.
type Fig8Result struct {
	Rows []Fig8Row
}

// RunFig8 builds the scenario: a mobile device requests a video owned by
// a low-end Atom node; conversion can run at the owner (Town) or wherever
// the decision process selects (Topt).
func RunFig8(cfg Fig8Config) (_ *Fig8Result, err error) {
	defer catch(&err)
	res := &Fig8Result{}
	check(scenario{
		name: "fig8",
		opts: cluster.Options{Seed: cfg.Seed},
		nodes: []core.NodeConfig{
			{Addr: "owner:9000", Machine: cluster.NetbookSpec("owner"), MandatoryBytes: 8 * cluster.GB},
			{Addr: "desktop:9000", Machine: cluster.DesktopSpec(), MandatoryBytes: 8 * cluster.GB, VoluntaryBytes: 8 * cluster.GB},
			{Addr: "mobile:9000", Machine: cluster.NetbookSpec("mobile")},
		},
		setup: func(e *env) {
			x264 := services.X264Convert()
			check(e.nodes[0].DeployService(x264, "performance"))
			check(e.nodes[1].DeployService(x264, "performance"))
			check(e.Home.PublishAll())

			sess := e.openEach(e.nodes[0], e.nodes[2])
			owner, mobile := sess[0], sess[1]
			for _, size := range cfg.Sizes {
				name := fmt.Sprintf("fig8/video-%dMB.avi", size/MB)
				put(owner, name, "video/avi", nil, size, blocking)
				// Town: conversion pinned to the owner node.
				town := must(mobile.ProcessAt(name, "x264", services.X264ConvertID, "owner:9000"))
				// Topt: the decision process picks the execution site.
				opt := must(mobile.Process(name, "x264", services.X264ConvertID))
				res.Rows = append(res.Rows, Fig8Row{
					Size: size, Town: town.Breakdown.Total, Topt: opt.Breakdown.Total, Chosen: opt.Target,
				})
			}
		},
	}.run())
	return res, nil
}

// Table renders the comparison.
func (r *Fig8Result) Table() Table {
	t := Table{
		Title:   "Figure 8: Feasibility of dynamic request routing (x264 .avi→.mp4)",
		Headers: []string{"Video(MB)", "Town(s)", "Topt(s)", "Speedup", "Chosen"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Size/MB),
			Seconds(row.Town), Seconds(row.Topt),
			fmt.Sprintf("%.1fx", row.Town.Seconds()/row.Topt.Seconds()),
			row.Chosen,
		})
	}
	return t
}
