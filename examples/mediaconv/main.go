// Mediaconv: the paper's media-conversion use case (§II, Fig 8). A
// low-end netbook owns .avi videos; a phone wants mobile-friendly .mp4.
// Converting at the owner (Town) is slow; VStore++'s dynamic resource
// discovery routes the conversion to the desktop (Topt), and when the
// desktop gets busy the decision adapts.
//
//	go run ./examples/mediaconv
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
	clock := c4h.NewVirtualClock(time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC))
	var runErr error
	clock.Run(func() { runErr = demo(clock) })
	return runErr
}

func demo(clock *c4h.VirtualClock) error {
	home := c4h.NewHome(clock, c4h.HomeOptions{Seed: 3})
	owner, err := home.AddNode(c4h.NodeConfig{
		Addr:           "netbook:9000",
		Machine:        c4h.MachineSpec{Name: "netbook", Cores: 1, GHz: 1.66, MemMB: 512, Battery: 1},
		MandatoryBytes: 16 << 30,
	})
	if err != nil {
		return err
	}
	desktop, err := home.AddNode(c4h.NodeConfig{
		Addr:           "desktop:9000",
		Machine:        c4h.MachineSpec{Name: "desktop", Cores: 4, GHz: 2.3, MemMB: 2048, Battery: 1},
		MandatoryBytes: 16 << 30,
		VoluntaryBytes: 16 << 30,
	})
	if err != nil {
		return err
	}
	phone, err := home.AddNode(c4h.NodeConfig{
		Addr:    "phone:9000",
		Machine: c4h.MachineSpec{Name: "phone", Cores: 1, GHz: 0.8, MemMB: 256, Battery: 0.4},
	})
	if err != nil {
		return err
	}
	x264 := c4h.X264ConvertService()
	if err := owner.DeployService(x264, "performance"); err != nil {
		return err
	}
	if err := desktop.DeployService(x264, "performance"); err != nil {
		return err
	}
	publish := func() error {
		for _, n := range home.Nodes() {
			if err := n.Monitor().PublishOnce(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := publish(); err != nil {
		return err
	}

	// The netbook owns a 20 MB video.
	ownerSess, err := owner.OpenSession()
	if err != nil {
		return err
	}
	defer ownerSess.Close()
	if err := ownerSess.CreateObject("videos/trip.avi", "video/avi", nil); err != nil {
		return err
	}
	if _, err := ownerSess.StoreObject("videos/trip.avi", nil, 20<<20, c4h.StoreOptions{Blocking: true}); err != nil {
		return err
	}

	phoneSess, err := phone.OpenSession()
	if err != nil {
		return err
	}
	defer phoneSess.Close()

	// Town: conversion pinned at the owner.
	town, err := phoneSess.ProcessAt("videos/trip.avi", "x264", c4h.X264ConvertID, "netbook:9000")
	if err != nil {
		return err
	}
	fmt.Printf("Town  (owner netbook):   %v\n", town.Breakdown.Total.Round(time.Second))

	// Topt: the decision process discovers the desktop.
	topt, err := phoneSess.Process("videos/trip.avi", "x264", c4h.X264ConvertID)
	if err != nil {
		return err
	}
	fmt.Printf("Topt  (decided: %s): %v  — %.1fx faster, incl. %v decision + %v data movement\n",
		topt.Target, topt.Breakdown.Total.Round(time.Second),
		town.Breakdown.Total.Seconds()/topt.Breakdown.Total.Seconds(),
		topt.Breakdown.Decision.Round(time.Millisecond),
		topt.Breakdown.InputMove.Round(time.Second))

	// Adaptation: load the desktop and republish resources. The decision
	// re-evaluates with the desktop's load folded into its estimate — for
	// this workload the desktop stays ahead of the 1.66 GHz netbook even
	// when busy, which is exactly what a load-aware estimate should
	// conclude.
	finished := clock.NewEvent()
	clock.Go(func() {
		defer finished.Fire()
		// A long-running job hogs the desktop's cores.
		busySess, err := desktop.OpenSession()
		if err != nil {
			return
		}
		defer busySess.Close()
		if err := busySess.CreateObject("videos/long.avi", "video/avi", nil); err != nil {
			return
		}
		if _, err := busySess.StoreObject("videos/long.avi", nil, 300<<20, c4h.StoreOptions{Blocking: true}); err != nil {
			return
		}
		// Only the job's load matters here, not its result.
		_, _ = busySess.ProcessAt("videos/long.avi", "x264", c4h.X264ConvertID, "desktop:9000")
	})
	clock.Sleep(30 * time.Second) // let the big job get going
	if err := publish(); err != nil {
		return err
	}
	adapted, err := phoneSess.Process("videos/trip.avi", "x264", c4h.X264ConvertID)
	if err != nil {
		return err
	}
	fmt.Printf("Tbusy (desktop at load %.2f → decided: %s): %v\n",
		desktop.Machine().Load(), adapted.Target, adapted.Breakdown.Total.Round(time.Second))
	finished.Wait()
	return nil
}
