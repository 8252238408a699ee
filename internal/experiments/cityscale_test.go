package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCityScaleIdentity runs a scaled-down city sweep as RunCityScale
// runs it (lazy monitors) and asserts the result-preserving property: its
// virtual-time metrics equal, field for field, the ones frozen in
// testdata/golden/city_identity.json from the eager-monitor flat core
// (TestGoldenOutputs holds today's default run to the same file).
func TestCityScaleIdentity(t *testing.T) {
	sizes := []int{64, 200}
	if testing.Short() {
		sizes = []int{64}
	}
	cfg := goldenCityIdentity
	cfg.Nodes = sizes
	res, err := RunCityScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "city_identity.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []CityScaleMetrics
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	var repairTotal int64
	for i, row := range res.Rows {
		if row.Metrics != golden[i] {
			t.Fatalf("n=%d: lazy-monitor sweep diverged from the frozen eager-monitor core:\n got  %+v\n want %+v",
				sizes[i], row.Metrics, golden[i])
		}
		if row.Metrics.Fetches == 0 || row.Metrics.Stores == 0 {
			t.Fatalf("n=%d: workload did not execute: %+v", row.Metrics.Nodes, row.Metrics)
		}
		if row.Metrics.MeanLookupHops <= 0 {
			t.Fatalf("n=%d: no lookup hops recorded", row.Metrics.Nodes)
		}
		repairTotal += row.Metrics.RepairMessages
		t.Logf("n=%d hops=%.2f fetch=%v msgs=%d repair=%d bytes/node=%d wall=%v",
			row.Metrics.Nodes, row.Metrics.MeanLookupHops, row.Metrics.FetchMean, row.Metrics.Messages,
			row.Metrics.RepairMessages, row.BytesPerNode, row.Wall)
	}

	// Some sweep sizes can legitimately see zero repair traffic (the
	// crashed nodes held no authoritative entries), but the sweep as a
	// whole must exercise the repair path.
	if repairTotal <= 0 {
		t.Errorf("no repair traffic anywhere in the sweep")
	}

	sp := res.SuperPeer
	if sp.Regions != 4 || sp.Nodes != sizes[0] {
		t.Fatalf("super-peer cell ran with wrong shape: %+v", sp)
	}
	// home → regional aggregator → key's aggregator → owner is the longest
	// route the two-level tier permits.
	if sp.MaxHops > 3 {
		t.Errorf("super-peer lookup exceeded 3 hops: %+v", sp)
	}
	if sp.SuperHops == 0 || sp.HomeHops == 0 {
		t.Errorf("per-tier hop split degenerate: %+v", sp)
	}
	t.Logf("superpeer n=%d r=%d hops=%.2f (max %d) super=%d home=%d",
		sp.Nodes, sp.Regions, sp.MeanHops, sp.MaxHops, sp.SuperHops, sp.HomeHops)
}
