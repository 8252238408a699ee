// Command c4h is the Cloud4Home CLI: it talks to a c4hd daemon over the
// VStore++ command protocol.
//
// Usage:
//
//	c4h [-addr host:7070] store <name> <file>        upload a file
//	c4h [-addr host:7070] store-sparse <name> <size> store a synthetic object
//	c4h [-addr host:7070] fetch <name> [-o file]     download an object
//	c4h [-addr host:7070] process <name> <service>   run fdet/frec/x264
//	c4h [-addr host:7070] ls                         list nodes and objects
//	c4h [-addr host:7070] stats                      per-node activity counters
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"cloud4home/internal/daemon"
	"cloud4home/internal/services"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "c4h:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("c4h", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "c4hd daemon address")
	node := fs.String("node", "", "home node to issue the request from")
	out := fs.String("o", "", "output file for fetch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("missing subcommand (store, store-sparse, fetch, process, ls, stats)")
	}

	client, err := daemon.Dial(*addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer client.Close()

	switch rest[0] {
	case "store":
		if len(rest) != 3 {
			return errors.New("usage: store <name> <file>")
		}
		data, err := os.ReadFile(rest[2])
		if err != nil {
			return err
		}
		res, err := client.Store(rest[1], "", data, 0, *node)
		if err != nil {
			return err
		}
		fmt.Printf("stored %s (%d bytes) at %s in %v\n", rest[1], len(data), res.Location, res.Total)
		return nil

	case "store-sparse":
		if len(rest) != 3 {
			return errors.New("usage: store-sparse <name> <size-bytes>")
		}
		size, err := strconv.ParseInt(rest[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad size %q: %v", rest[2], err)
		}
		res, err := client.Store(rest[1], "", nil, size, *node)
		if err != nil {
			return err
		}
		fmt.Printf("stored sparse %s (%d bytes) at %s in %v\n", rest[1], size, res.Location, res.Total)
		return nil

	case "fetch":
		if len(rest) != 2 {
			return errors.New("usage: fetch <name> [-o file]")
		}
		res, err := client.Fetch(rest[1], *node)
		if err != nil {
			return err
		}
		fmt.Printf("fetched %s (%d bytes) from %s in %v\n", rest[1], res.Size, res.Source, res.Total)
		if *out != "" && res.Data != nil {
			if err := os.WriteFile(*out, res.Data, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *out)
		}
		return nil

	case "process":
		if len(rest) != 3 {
			return errors.New("usage: process <name> <fdet|frec|x264>")
		}
		id, err := serviceID(rest[2])
		if err != nil {
			return err
		}
		res, err := client.Process(rest[1], rest[2], id, *node)
		if err != nil {
			return err
		}
		fmt.Printf("processed %s with %s at %s (%s) in %v\n",
			rest[1], rest[2], res.Target, res.Mode, res.Total)
		switch rest[2] {
		case "fdet":
			fmt.Printf("detections: %d\n", res.Detections)
		case "frec":
			fmt.Printf("best match: %d\n", res.MatchID)
		case "x264":
			fmt.Printf("converted output: %d bytes\n", res.OutputSize)
		}
		return nil

	case "stats":
		stats, err := client.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %8s %8s %8s %8s %12s %12s %6s %8s\n",
			"node", "stores", "fetches", "procs", "deletes", "bytesIn", "bytesOut", "load", "memFree")
		for _, s := range stats {
			fmt.Printf("%-20s %8d %8d %8d %8d %12d %12d %6.2f %7dM",
				s.Addr, s.Stores, s.Fetches, s.Processes, s.Deletes,
				s.BytesStored, s.BytesFetched, s.CPULoad, s.MemFreeMB)
			// The remaining counters stay off the wire while zero.
			for name, n := range s.Counters() {
				if n != 0 {
					fmt.Printf("  %s=%d", name, n)
				}
			}
			fmt.Println()
		}
		return nil

	case "ls":
		nodes, objects, err := client.List()
		if err != nil {
			return err
		}
		fmt.Println("nodes:")
		for _, n := range nodes {
			fmt.Println("  ", n)
		}
		fmt.Println("objects:")
		for _, o := range objects {
			fmt.Println("  ", o)
		}
		return nil

	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

func serviceID(name string) (uint32, error) {
	switch name {
	case "fdet":
		return services.FaceDetectID, nil
	case "frec":
		return services.FaceRecognizeID, nil
	case "x264":
		return services.X264ConvertID, nil
	default:
		return 0, fmt.Errorf("unknown service %q (want fdet, frec, or x264)", name)
	}
}
