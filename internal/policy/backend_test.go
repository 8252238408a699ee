package policy

import (
	"errors"
	"testing"
	"time"

	"cloud4home/internal/objstore"
)

// backendSet is a three-provider frontier: a default hyperscaler, a cold
// archive (cheapest, most durable, slowest), and a metro edge (fastest,
// priciest, least durable).
func backendSet() []BackendInfo {
	return []BackendInfo{
		{
			Name: "s3", EstStore: 8 * time.Second, EstFetch: 6 * time.Second,
			StorePerGBMonth: 0.14, PutPerGB: 0.10, GetPerGB: 0.15, PerRequest: 0.00001,
			Durability: 0.99999999999,
		},
		{
			Name: "archive", EstStore: 20 * time.Second, EstFetch: 30 * time.Second,
			StorePerGBMonth: 0.03, PutPerGB: 0.05, GetPerGB: 0.30, PerRequest: 0.0005,
			Durability: 0.999999999999,
		},
		{
			Name: "metro", EstStore: 2 * time.Second, EstFetch: 1 * time.Second,
			StorePerGBMonth: 0.45, PutPerGB: 0.12, GetPerGB: 0.25, PerRequest: 0.00002,
			Durability: 0.99999,
		},
	}
}

func bigObj() objstore.Object { return objstore.Object{Name: "big.bin", Size: 1 << 30} }

func TestCheapestBackendMinimisesMonthlyCost(t *testing.T) {
	idx, err := CheapestBackend{}.Choose(bigObj(), backendSet())
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("cheapest chose %d, want 1 (archive)", idx)
	}
	// Tiny objects invert the choice: archive's per-request fee dominates
	// and the default provider wins.
	idx, err = CheapestBackend{}.Choose(objstore.Object{Name: "tiny", Size: 1 << 10}, backendSet())
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("cheapest chose %d for a tiny object, want 0 (s3)", idx)
	}
}

func TestFastestBackendMinimisesRoundTrip(t *testing.T) {
	idx, err := FastestBackend{}.Choose(bigObj(), backendSet())
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("fastest chose %d, want 2 (metro)", idx)
	}
}

func TestFastestBackendBreaksTiesTowardAttachmentOrder(t *testing.T) {
	set := backendSet()
	set[1].EstStore, set[1].EstFetch = set[0].EstStore, set[0].EstFetch
	set[2].EstStore, set[2].EstFetch = set[0].EstStore, set[0].EstFetch
	idx, err := FastestBackend{}.Choose(bigObj(), set)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("tie broke to %d, want the lower index 0", idx)
	}
}

func TestMostDurableBackendMaximisesNines(t *testing.T) {
	idx, err := MostDurableBackend{}.Choose(bigObj(), backendSet())
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("most-durable chose %d, want 1 (archive)", idx)
	}
}

func TestBackendPoliciesErrWhenNoneEligible(t *testing.T) {
	for _, pol := range []BackendPolicy{CheapestBackend{}, FastestBackend{}, MostDurableBackend{}} {
		if _, err := pol.Choose(bigObj(), nil); !errors.Is(err, ErrNoBackend) {
			t.Fatalf("%s: err = %v, want ErrNoBackend", pol.Name(), err)
		}
	}
}

func TestPinnedBackendRoutesByName(t *testing.T) {
	idx, err := PinnedBackend{Backend: "metro"}.Choose(bigObj(), backendSet())
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("pinned chose %d, want 2 (metro)", idx)
	}
	if _, err := (PinnedBackend{Backend: "glacier"}).Choose(bigObj(), backendSet()); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("missing pin: err = %v, want ErrNoBackend", err)
	}
}
