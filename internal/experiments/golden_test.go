package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cloud4home/internal/cluster"
)

// updateGolden rewrites testdata/golden from this tree's results. The
// files are frozen virtual-time outputs: regenerate them only in a PR
// that changes what is simulated, never in one that changes how.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.json from this tree's results")

const goldenSeed = 2011

// goldenCityIdentity is the scaled-down city sweep TestCityScaleIdentity
// runs; goldenCity1k is the 1 000-home city at RunCityScale's defaults.
var (
	goldenCityIdentity = CityScaleConfig{Seed: 7, Ops: 300, Objects: 40, ChurnEvents: 3, Regions: 4}
	goldenCity1k       = CityScaleConfig{Seed: goldenSeed, Ops: 4096, Objects: 256, ChurnEvents: 4}
)

// checkGolden compares v's JSON encoding with testdata/golden/<name>.json
// byte for byte (or rewrites the file under -update-golden).
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from its golden output\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// cityMetrics runs cityArm at each size with the default eager monitors.
func cityMetrics(t *testing.T, cfg CityScaleConfig, sizes ...int) []CityScaleMetrics {
	t.Helper()
	out := make([]CityScaleMetrics, 0, len(sizes))
	for _, n := range sizes {
		r, err := cityArm(cfg, cluster.CityOptions{Seed: cfg.Seed, Homes: n})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.CityScaleMetrics)
	}
	return out
}

// TestGoldenOutputs pins the default-configuration virtual results of
// every experiment in Evaluation, at goldenSeed, byte for byte, so an
// entry cannot join the list without a golden. scaleup, fig4, table1 and
// the city cells were frozen when the lazy RNG, the resource-record memo
// and the compact membership became the only path; availability and
// federation (the two that run the redundancy code) on the last commit
// with one placement/gather/repair path per scheme; the rest on the last
// commit that hand-rolled each experiment's build, spawn and join, and
// Fig 6 after its workers stopped racing for the network's RNG. A
// host-side change must leave every byte of them alone.
func TestGoldenOutputs(t *testing.T) {
	for _, e := range Evaluation(CityScaleConfig{}) {
		if e.OnDemand {
			continue // the city sweep: pinned by the two city cells below
		}
		t.Run(e.Name, func(t *testing.T) {
			out, err := e.Run(goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e.Name, out.Result)
		})
	}
	t.Run("city1k", func(t *testing.T) {
		checkGolden(t, "city1k", cityMetrics(t, goldenCity1k, 1000))
	})
	t.Run("city_identity", func(t *testing.T) {
		checkGolden(t, "city_identity", cityMetrics(t, goldenCityIdentity, 64, 200))
	})
}
