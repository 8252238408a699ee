package daemon

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"

	"cloud4home/internal/command"
	"cloud4home/internal/core"
)

// helperEnv, set in a re-run of the test binary, makes it a daemon that
// serves the test home until its stdin closes, its address on stdout: a
// live server in a process of its own, so that a client's allocation
// count holds the client's allocations only.
const helperEnv = "C4H_DAEMON_TEST_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) != "" {
		if err := serveUntilStdinCloses(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func serveUntilStdinCloses() error {
	srv, stop, err := runTestHome(core.Config{})
	defer stop()
	if err != nil {
		return err
	}
	done, err := listen(srv)
	if err != nil {
		return err
	}
	fmt.Println(srv.Addr())
	_, _ = io.Copy(io.Discard, os.Stdin) // until the test closes it
	srv.Close()
	return <-done
}

// startServerProcess runs the test home's daemon in a child process and
// returns its address.
func startServerProcess(t *testing.T) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close()
		if err := cmd.Wait(); err != nil {
			t.Errorf("daemon process: %v", err)
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("daemon process printed no address: %v", err)
	}
	return strings.TrimSpace(line)
}

var (
	sinkData  []byte
	sinkStats []NodeStats
)

// TestClientAllocations pins what a client's call allocates against a
// live server: the values it returns, and no framing. A reply's strings
// are cut from one copy of its body, so a Store allocates that copy (its
// Location), a Fetch the payload and the copy (its Source), and a Stats
// its slice and the copy (its node addresses).
func TestClientAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := dial(t, startServerProcess(t))
	payload := bytes.Repeat([]byte("c4h"), 16<<10/3)
	if _, err := c.Store("alloc/a.bin", "bin", payload, 0, testNodes[0]); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	names := make([]string, 2*runs)
	for i := range names {
		names[i] = fmt.Sprintf("alloc/%d.bin", i)
	}
	stored := 0
	for _, tc := range []struct {
		op   string
		want float64
		call func() error
	}{
		{"Fetch", 2, func() error {
			res, err := c.Fetch("alloc/a.bin", testNodes[0])
			sinkData = res.Data
			return err
		}},
		{"Store", 1, func() error {
			_, err := c.Store(names[stored], "bin", nil, 4096, testNodes[0])
			stored++
			return err
		}},
		{"Stats", 2, func() error {
			var err error
			sinkStats, err = c.Stats()
			return err
		}},
	} {
		if err := tc.call(); err != nil { // the connection's buffers grow once
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(runs, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		}); n != tc.want {
			t.Errorf("%s: %v allocations, want %v", tc.op, n, tc.want)
		}
	}
	if !bytes.Equal(sinkData, payload) || len(sinkStats) != len(testNodes) {
		t.Fatalf("fetched %d bytes, stats for %d nodes", len(sinkData), len(sinkStats))
	}
}

// tcpPair returns one end of a loopback TCP connection; a goroutine reads
// and discards whatever reaches the other.
func tcpPair(t *testing.T) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	far, err := ln.Accept()
	if err != nil {
		near.Close()
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 64<<10)
		for {
			if _, err := far.Read(buf); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		near.Close()
		<-drained
		far.Close()
	})
	return near
}

// TestServerFramingAllocations: the server reads a request through its
// connection's buffers without allocating, decodes it into the one
// string copy of its body that the op's names are cut from, and writes a
// reply, payload or stats frame included, without allocating.
func TestServerFramingAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 50
	req, err := (&command.Packet{
		Type: command.TypeFetch,
		Data: appendFetchReq(nil, fetchReq{Name: "d/1/0.bin", Node: "netbook-1:9000"}),
	}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	in := &wire{r: bufio.NewReaderSize(bytes.NewReader(bytes.Repeat(req, 2*runs+2)), serverReadBuf)}
	var p command.Packet
	if n := testing.AllocsPerRun(runs, func() {
		if err := in.read(&p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("reading a request: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if err := in.read(&p); err != nil {
			t.Fatal(err)
		}
		if r, err := decodeFetchReq(string(p.Data)); err != nil || r.Node != "netbook-1:9000" {
			t.Fatalf("decode: %+v, %v", r, err)
		}
	}); n != 1 {
		t.Errorf("reading and decoding a request: %v allocations, want 1", n)
	}

	out := newWire(tcpPair(t), serverReadBuf)
	payload := make([]byte, 16<<10)
	stats := []NodeStats{{Addr: testNodes[0], CPULoad: 0.5}, {Addr: testNodes[1]}}
	for _, tc := range []struct {
		reply string
		send  func() error
	}{
		{"fetch", func() error {
			out.body = appendFetchResp(out.body[:0], fetchResp{Size: int64(len(payload)), Source: testNodes[0], TotalMS: 12})
			return out.send(command.TypeFetch, out.body, payload)
		}},
		{"stats", func() error {
			var err error
			if out.body, err = appendStats(out.body[:0], stats); err != nil {
				return err
			}
			return out.send(command.TypeStats, nil, out.body)
		}},
	} {
		if err := tc.send(); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(runs, func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("writing a %s reply: %v allocations, want 0", tc.reply, n)
		}
	}
}
