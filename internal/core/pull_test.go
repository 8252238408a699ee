package core

import (
	"testing"

	"cloud4home/internal/vclock"
)

// paperFetchBed is a zero-value home of three netbooks, n00 holding the
// sparse object "remote.bin" that n01 fetches or moves to n02: every pull
// takes the paper's path, one request message and one LAN transfer.
func paperFetchBed(tb testing.TB, body func(reader *Node, sess *Session, meta ObjectMeta)) {
	tb.Helper()
	v := vclock.NewVirtual(epoch)
	v.Run(func() {
		home := NewHome(v, HomeOptions{})
		var nodes []*Node
		for _, addr := range []string{"n00:9000", "n01:9000", "n02:9000"} {
			n, err := home.AddNode(NodeConfig{Addr: addr, Machine: atomSpec(addr), MandatoryBytes: 2 * GB})
			if err != nil {
				tb.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		owner, err := nodes[0].OpenSession()
		if err != nil {
			tb.Fatal(err)
		}
		defer owner.Close()
		if err := owner.CreateObject("remote.bin", "bin", nil); err != nil {
			tb.Fatal(err)
		}
		if _, err := owner.StoreObject("remote.bin", nil, 4<<20, StoreOptions{Blocking: true}); err != nil {
			tb.Fatal(err)
		}
		reader, err := nodes[1].OpenSession()
		if err != nil {
			tb.Fatal(err)
		}
		defer reader.Close()
		meta, _, err := nodes[1].getMeta("remote.bin")
		if err != nil {
			tb.Fatal(err)
		}
		body(nodes[1], reader, meta)
	})
}

// TestRemoteFetchAllocations pins the paper path's host allocations: a
// remote sparse FetchObject allocates once (the decoded metadata
// record; the command packet is encoded on the stack), and the executor
// below fetchToDom0 — the request, the holder's read and the transfer —
// not at all, nor does the process path's input move of the object into
// a third node's dom0. A pull the here rung serves — the owner's own
// fetch, an input move into the owner — allocates nothing either.
func TestRemoteFetchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	paperFetchBed(t, func(reader *Node, sess *Session, meta ObjectMeta) {
		if n := testing.AllocsPerRun(50, func() {
			if _, err := sess.FetchObject("remote.bin"); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("remote FetchObject: %v allocations, want 1", n)
		}
		var bd FetchBreakdown
		if n := testing.AllocsPerRun(50, func() {
			if _, _, err := reader.pull(reader, meta, reader.fetchLadder(), nil, &bd); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("pull of a remote copy: %v allocations, want 0", n)
		}
		if n := testing.AllocsPerRun(50, func() {
			if _, _, err := reader.moveInput(meta, "n02:9000", nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("input move to a third node: %v allocations, want 0", n)
		}
		owner, _ := reader.home.Node(meta.Location)
		if n := testing.AllocsPerRun(50, func() {
			if _, src, err := owner.pull(owner, meta, owner.fetchLadder(), nil, &bd); err != nil || src != owner.addr {
				t.Fatal(src, err)
			}
		}); n != 0 {
			t.Errorf("pull of a local copy: %v allocations, want 0", n)
		}
		if n := testing.AllocsPerRun(50, func() {
			if _, d, err := reader.moveInput(meta, owner.addr, nil); err != nil || d != 0 {
				t.Fatal(d, err)
			}
		}); n != 0 {
			t.Errorf("input move into the owner: %v allocations, want 0", n)
		}
	})
}

// BenchmarkRemoteFetch is the executor's profiling entry point: the
// paper path's wire branch, one remote sparse copy per pull.
func BenchmarkRemoteFetch(b *testing.B) {
	paperFetchBed(b, func(reader *Node, _ *Session, meta ObjectMeta) {
		var bd FetchBreakdown
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := reader.pull(reader, meta, reader.fetchLadder(), nil, &bd); err != nil {
				b.Fatal(err)
			}
		}
	})
}
