package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
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
		m, _, err := cityArm(cfg, n, false)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestGoldenOutputs pins the default-configuration virtual results of the
// experiments whose live dual-run identity arms were deleted when the
// lazy RNG, the resource-record memo and the compact membership became
// the only path (the files were frozen on the last commit that still had
// the eager reseed, the per-operation decode and the flat router). A
// host-side optimisation must leave every byte of them alone.
func TestGoldenOutputs(t *testing.T) {
	t.Run("scaleup", func(t *testing.T) {
		res, err := RunScaleUp(DefaultScaleUp(goldenSeed))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "scaleup", res)
	})
	t.Run("fig4", func(t *testing.T) {
		res, err := RunFig4(DefaultFig4(goldenSeed))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "fig4", res)
	})
	t.Run("table1", func(t *testing.T) {
		res, err := RunTable1(DefaultTable1(goldenSeed))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "table1", res)
	})
	t.Run("city1k", func(t *testing.T) {
		checkGolden(t, "city1k", cityMetrics(t, goldenCity1k, 1000))
	})
	t.Run("city_identity", func(t *testing.T) {
		checkGolden(t, "city_identity", cityMetrics(t, goldenCityIdentity, 64, 200))
	})
	// The two experiments that run the redundancy code (replicas and
	// k-of-n shards under Fallback+Repair with a scheduled crash), frozen
	// on the last commit that had one placement/gather/repair path per
	// scheme. Neither result carries a host-side field.
	t.Run("availability", func(t *testing.T) {
		res, err := RunAvailability(DefaultAvailability(goldenSeed))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "availability", res)
	})
	t.Run("federation", func(t *testing.T) {
		res, err := RunFederation(DefaultFederation(goldenSeed))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "federation", res)
	})
}
