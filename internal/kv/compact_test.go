package kv

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloud4home/internal/ids"
	"cloud4home/internal/overlay"
)

// updateGolden rewrites testdata/golden from this tree's transcripts.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.txt from this tree's transcripts")

// logWire records every Send so a store build can be compared with the
// frozen transcript message-for-message.
type logWire struct {
	mu  sync.Mutex
	log [][2]ids.ID
}

func (w *logWire) Send(from, to ids.ID) {
	w.mu.Lock()
	w.log = append(w.log, [2]ids.ID{from, to})
	w.mu.Unlock()
}

func (w *logWire) snapshot() [][2]ids.ID {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][2]ids.ID(nil), w.log...)
}

// TestCompactStoreMatchesFlat drives a deterministic workload — puts,
// gets, joins, leaves, crashes — against the store (shared membership
// arena, one global churn-handler pair, dirty-set walks) and requires
// every operation result and the whole wire log to equal the transcript
// frozen from the flat-mesh store it replaced (per-router membership
// copies, one churn-handler pair per node, full-membership attach
// sweep). This pins the dirty-set and global-handler equivalence
// argument in kv.go.
func TestCompactStoreMatchesFlat(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			wire := &logWire{}
			mesh := overlay.NewMesh(wire)
			store := New(mesh, wire, Options{ReplicationFactor: 2, CacheEnabled: true})
			var alive []ids.ID
			for i := 0; i < 10; i++ {
				r, err := mesh.Join(fmt.Sprintf("10.9.%d.1:7000", i+1))
				if err != nil {
					t.Fatal(err)
				}
				store.Attach(r.Self().ID)
				alive = append(alive, r.Self().ID)
			}

			var sb strings.Builder
			rng := rand.New(rand.NewSource(seed))
			nextAddr := 100
			for step := 0; step < 120; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // put
					from := alive[rng.Intn(len(alive))]
					key := ids.HashString(fmt.Sprintf("obj-%d", rng.Intn(12)))
					pr, err := store.Put(from, key, []byte(fmt.Sprintf("v%d", step)), Overwrite)
					fmt.Fprintf(&sb, "%d put %s %s -> v%d hops=%d owner=%s ok=%v\n",
						step, from, key, pr.Version, pr.Hops, pr.Owner, err == nil)
				case op < 8: // get
					from := alive[rng.Intn(len(alive))]
					key := ids.HashString(fmt.Sprintf("obj-%d", rng.Intn(12)))
					gr, err := store.Get(from, key)
					fmt.Fprintf(&sb, "%d get %s %s -> v%d %q hops=%d cache=%v ok=%v\n",
						step, from, key, gr.Value.Version, gr.Value.Data, gr.Hops, gr.FromCache, err == nil)
				case op == 8: // join + attach
					addr := fmt.Sprintf("10.9.200.%d:7000", nextAddr)
					nextAddr++
					r, err := mesh.Join(addr)
					fmt.Fprintf(&sb, "%d join %s ok=%v\n", step, addr, err == nil)
					if err == nil {
						store.Attach(r.Self().ID)
						alive = append(alive, r.Self().ID)
					}
				default: // leave or crash
					if len(alive) <= 4 {
						continue
					}
					i := rng.Intn(len(alive))
					id := alive[i]
					alive = append(alive[:i], alive[i+1:]...)
					if rng.Intn(2) == 0 {
						if err := store.Depart(id); err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&sb, "%d depart %s\n", step, id)
					} else {
						if err := mesh.Fail(id); err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&sb, "%d fail %s\n", step, id)
					}
				}
			}
			for _, m := range wire.snapshot() {
				fmt.Fprintf(&sb, "%s>%s\n", m[0], m[1])
			}
			got := sb.String()

			path := filepath.Join("testdata", "golden", fmt.Sprintf("churn_seed%d.txt", seed))
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("transcript diverged at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("transcript length diverged: got %d lines, want %d", len(gl), len(wl))
			}
		})
	}
}
