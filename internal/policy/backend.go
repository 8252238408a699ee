package policy

import (
	"errors"
	"fmt"
	"time"

	"cloud4home/internal/objstore"
)

// BackendInfo is one federated cloud backend as a placement policy sees
// it: the core layer snapshots each attached backend's profile and
// deterministic transfer estimates for the object at hand, in the
// home's fixed attachment order (default cloud first). Policies must
// decide from these fields alone so choices replay bit-identically.
type BackendInfo struct {
	// Name identifies the backend (recorded in object metadata).
	Name string
	// EstStore/EstFetch are the modeled transfer times for this object
	// from the requesting node (deterministic profile estimates: no
	// jitter draw).
	EstStore, EstFetch time.Duration
	// Pricing, in USD: storage per GB-month, ingress per GB, egress per
	// GB, and the flat per-request fee.
	StorePerGBMonth, PutPerGB, GetPerGB, PerRequest float64
	// Durability is the backend's advertised annual object-survival
	// probability.
	Durability float64
}

// MonthlyCost is the modeled first-month bill for parking size bytes on
// this backend: one ingress transfer plus one month of storage plus the
// put request. Fetch-side pricing is deliberately excluded — read cost
// depends on the workload, which store-time policies cannot see.
func (b BackendInfo) MonthlyCost(size int64) float64 {
	const gb = float64(1 << 30)
	return float64(size)/gb*(b.StorePerGBMonth+b.PutPerGB) + b.PerRequest
}

// ErrNoBackend is returned when no backend is attached, or not the one a
// policy requires.
var ErrNoBackend = errors.New("policy: no eligible backend")

// BackendPolicy picks the cloud backend for one TargetCloud placement.
// Choose returns an index into backends. Implementations must be
// deterministic: equal inputs, equal choice (ties break toward the
// lower index, i.e. the home's attachment order).
type BackendPolicy interface {
	Name() string
	Choose(obj objstore.Object, backends []BackendInfo) (int, error)
}

// CheapestBackend minimises the modeled first-month bill — the policy
// for bulk archival data whose retrieval is rare.
type CheapestBackend struct{}

var _ BackendPolicy = CheapestBackend{}

// Name implements BackendPolicy.
func (CheapestBackend) Name() string { return "cheapest-backend" }

// Choose implements BackendPolicy.
func (CheapestBackend) Choose(obj objstore.Object, backends []BackendInfo) (int, error) {
	best := -1
	var bestCost float64
	for i, b := range backends {
		c := b.MonthlyCost(obj.Size)
		if best == -1 || c < bestCost {
			best, bestCost = i, c
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("%w: %q", ErrNoBackend, obj.Name)
	}
	return best, nil
}

// FastestBackend minimises the modeled store+fetch round trip — the
// policy for hot data the home will read back soon.
type FastestBackend struct{}

var _ BackendPolicy = FastestBackend{}

// Name implements BackendPolicy.
func (FastestBackend) Name() string { return "fastest-backend" }

// Choose implements BackendPolicy.
func (FastestBackend) Choose(obj objstore.Object, backends []BackendInfo) (int, error) {
	best := -1
	var bestD time.Duration
	for i, b := range backends {
		d := b.EstStore + b.EstFetch
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("%w: %q", ErrNoBackend, obj.Name)
	}
	return best, nil
}

// MostDurableBackend maximises advertised durability — the policy for
// irreplaceable data (family archives, legal records).
type MostDurableBackend struct{}

var _ BackendPolicy = MostDurableBackend{}

// Name implements BackendPolicy.
func (MostDurableBackend) Name() string { return "most-durable-backend" }

// Choose implements BackendPolicy.
func (MostDurableBackend) Choose(obj objstore.Object, backends []BackendInfo) (int, error) {
	best := -1
	for i, b := range backends {
		if best == -1 || b.Durability > backends[best].Durability {
			best = i
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("%w: %q", ErrNoBackend, obj.Name)
	}
	return best, nil
}

// PinnedBackend routes every object to one named backend — the direct
// per-backend measurement mode of the federation experiments, and the
// escape hatch for users who contract with a single provider.
type PinnedBackend struct {
	// Backend is the required backend name.
	Backend string
}

var _ BackendPolicy = PinnedBackend{}

// Name implements BackendPolicy.
func (p PinnedBackend) Name() string { return "pinned-backend:" + p.Backend }

// Choose implements BackendPolicy.
func (p PinnedBackend) Choose(obj objstore.Object, backends []BackendInfo) (int, error) {
	for i, b := range backends {
		if b.Name == p.Backend {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q not attached", ErrNoBackend, p.Backend)
}
