// Package trace generates the synthetic workload derived from the
// eDonkey peer-to-peer dataset (§V-A): "we modify it by combining clients
// into smaller sets (emulating 6 clients) that each access a large number
// of files (1300 in total), performing repeated accesses across these
// files. The percentage of store vs. fetch operations is set to 60% and
// 40%, respectively."
//
// Files carry an identifier, size, and tags describing their context, as
// in the original dataset; accesses carry a client ID and time offset.
// Generation is fully deterministic in the seed.
package trace

import (
	"fmt"
	"math/rand"
	"time"
)

// SizeClass buckets objects the way §V-A's placement experiments do.
type SizeClass int

// The paper's four buckets: small (1–10 MB), medium (10–20 MB), large
// (20–50 MB) and super-large (50–100 MB).
const (
	Small SizeClass = iota + 1
	Medium
	Large
	SuperLarge
)

// String renders the bucket name.
func (c SizeClass) String() string {
	switch c {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	case SuperLarge:
		return "super-large"
	default:
		return fmt.Sprintf("SizeClass(%d)", int(c))
	}
}

// Bounds returns the bucket's size range in bytes.
func (c SizeClass) Bounds() (lo, hi int64) {
	const mb = 1 << 20
	switch c {
	case Small:
		return 1 * mb, 10 * mb
	case Medium:
		return 10 * mb, 20 * mb
	case Large:
		return 20 * mb, 50 * mb
	case SuperLarge:
		return 50 * mb, 100 * mb
	default:
		return 0, 0
	}
}

// ClassOf returns the bucket a size falls in.
func ClassOf(size int64) SizeClass {
	const mb = 1 << 20
	switch {
	case size < 10*mb:
		return Small
	case size < 20*mb:
		return Medium
	case size < 50*mb:
		return Large
	default:
		return SuperLarge
	}
}

// File is one object in the trace.
type File struct {
	// Name is the object's VStore++ name.
	Name string
	// Size in bytes.
	Size int64
	// Type is the file extension ("mp3", "avi", ...).
	Type string
	// Tags describe the file's context, as in the eDonkey dataset.
	Tags []string
}

// Class returns the file's size bucket.
func (f File) Class() SizeClass { return ClassOf(f.Size) }

// OpKind is a store or a fetch.
type OpKind int

// Operation kinds, 60 % stores / 40 % fetches in the paper's mix.
const (
	OpStore OpKind = iota + 1
	OpFetch
)

// String renders the kind.
func (k OpKind) String() string {
	if k == OpStore {
		return "store"
	}
	return "fetch"
}

// Access is one trace operation.
type Access struct {
	// Client is the issuing client index (0 ≤ Client < Clients).
	Client int
	// Kind is store or fetch.
	Kind OpKind
	// File indexes into the trace's Files.
	File int
	// At is the operation's offset from the trace start.
	At time.Duration
}

// Config parameterises generation. The zero value is invalid; use
// Default for the paper's setup.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Clients is the number of emulated clients (paper: 6).
	Clients int
	// Files is the catalogue size (paper: 1300).
	Files int
	// Accesses is the total operation count.
	Accesses int
	// StoreFraction is the share of store operations (paper: 0.6).
	StoreFraction float64
	// Classes restricts file sizes to the given buckets (all if empty).
	// The Fig 6 experiment uses the "optimal" 10–25 MB band via MinSize
	// and MaxSize instead.
	Classes []SizeClass
	// MinSize/MaxSize, when both positive, override Classes with an
	// explicit uniform size band.
	MinSize, MaxSize int64
	// PrivateFraction is the share of files typed ".mp3" (the Fig 6
	// privacy policy's private class).
	PrivateFraction float64
	// MeanGap is the mean inter-arrival time per client (exponential).
	MeanGap time.Duration
	// ZipfS, when > 1, skews file popularity with a Zipf distribution of
	// parameter s — "a large number of clients performing only a few
	// repetitive file accesses" concentrates on popular content. 0 means
	// uniform.
	ZipfS float64
}

// Default returns the paper's configuration.
func Default(seed int64) Config {
	return Config{
		Seed:            seed,
		Clients:         6,
		Files:           1300,
		Accesses:        2000,
		StoreFraction:   0.6,
		PrivateFraction: 0.3,
		MeanGap:         200 * time.Millisecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Clients <= 0 {
		return fmt.Errorf("trace: clients must be positive, got %d", c.Clients)
	}
	if c.Files <= 0 {
		return fmt.Errorf("trace: files must be positive, got %d", c.Files)
	}
	if c.Accesses < 0 {
		return fmt.Errorf("trace: negative access count %d", c.Accesses)
	}
	if c.StoreFraction < 0 || c.StoreFraction > 1 {
		return fmt.Errorf("trace: store fraction %f out of [0,1]", c.StoreFraction)
	}
	if c.PrivateFraction < 0 || c.PrivateFraction > 1 {
		return fmt.Errorf("trace: private fraction %f out of [0,1]", c.PrivateFraction)
	}
	if (c.MinSize > 0) != (c.MaxSize > 0) {
		return fmt.Errorf("trace: MinSize and MaxSize must be set together")
	}
	if c.MinSize > 0 && c.MinSize > c.MaxSize {
		return fmt.Errorf("trace: MinSize %d > MaxSize %d", c.MinSize, c.MaxSize)
	}
	if c.ZipfS != 0 && c.ZipfS <= 1 {
		return fmt.Errorf("trace: ZipfS must be > 1 (or 0 for uniform), got %f", c.ZipfS)
	}
	return nil
}

// Trace is a generated workload.
type Trace struct {
	Files    []File
	Accesses []Access
}

// Generate builds a deterministic trace from the configuration.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	classes := cfg.Classes
	if len(classes) == 0 {
		classes = []SizeClass{Small, Medium, Large, SuperLarge}
	}
	types := []string{"avi", "mkv", "jpg", "pdf", "iso"}
	tr := &Trace{Files: make([]File, cfg.Files)}
	for i := range tr.Files {
		var size int64
		if cfg.MinSize > 0 {
			size = cfg.MinSize + rng.Int63n(cfg.MaxSize-cfg.MinSize+1)
		} else {
			lo, hi := classes[rng.Intn(len(classes))].Bounds()
			size = lo + rng.Int63n(hi-lo+1)
		}
		typ := types[rng.Intn(len(types))]
		if rng.Float64() < cfg.PrivateFraction {
			typ = "mp3"
		}
		tr.Files[i] = File{
			Name: fmt.Sprintf("edonkey/%05d.%s", i, typ),
			Size: size,
			Type: typ,
			Tags: []string{fmt.Sprintf("ctx-%d", rng.Intn(40))},
		}
	}

	// Each client repeatedly accesses a working set of the catalogue,
	// emulating the combined-client behaviour of the modified dataset.
	// The first reference to a file must be a store; later references mix
	// stores (overwrites) and fetches at the configured ratio.
	stored := make([]bool, cfg.Files)
	clientClock := make([]time.Duration, cfg.Clients)
	tr.Accesses = make([]Access, 0, cfg.Accesses)
	var zipf *rand.Zipf
	if cfg.ZipfS > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Files-1))
	}
	pickFile := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		return rng.Intn(cfg.Files)
	}
	for len(tr.Accesses) < cfg.Accesses {
		client := rng.Intn(cfg.Clients)
		file := pickFile()
		kind := OpFetch
		if !stored[file] || rng.Float64() < cfg.StoreFraction {
			kind = OpStore
			stored[file] = true
		}
		gap := time.Duration(rng.ExpFloat64() * float64(cfg.MeanGap))
		clientClock[client] += gap
		tr.Accesses = append(tr.Accesses, Access{
			Client: client,
			Kind:   kind,
			File:   file,
			At:     clientClock[client],
		})
	}
	return tr, nil
}

// PopulationConfig parameterises a city-scale workload: many home nodes
// sharing one metadata overlay, a subset of them actively issuing
// store/fetch operations against a common object catalogue. Generation is
// fully deterministic in the seed and independent of the home count's
// effect on routing, so the same population can drive gated and baseline
// builds of the same city.
type PopulationConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Homes is the number of home nodes in the city.
	Homes int
	// Objects is the shared catalogue size.
	Objects int
	// Ops is the total operation count.
	Ops int
	// StoreFraction is the share of store operations (default 0.4 — city
	// traffic is read-heavier than one home's).
	StoreFraction float64
	// ActiveFraction is the share of homes that issue operations
	// (default 1). Inactive homes only route and hold replicas.
	ActiveFraction float64
	// ZipfS, when > 1, skews object popularity; 0 means uniform.
	ZipfS float64
}

// PopulationOp is one city-scale operation.
type PopulationOp struct {
	// Home is the issuing home index (0 ≤ Home < Homes, restricted to the
	// active subset).
	Home int
	// Kind is store or fetch.
	Kind OpKind
	// Object indexes the shared catalogue.
	Object int
}

// GeneratePopulation builds a deterministic city-scale workload. The
// first reference to an object is always a store, so fetches never miss.
func GeneratePopulation(cfg PopulationConfig) ([]PopulationOp, error) {
	if cfg.Homes <= 0 {
		return nil, fmt.Errorf("trace: homes must be positive, got %d", cfg.Homes)
	}
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("trace: objects must be positive, got %d", cfg.Objects)
	}
	if cfg.Ops < 0 {
		return nil, fmt.Errorf("trace: negative op count %d", cfg.Ops)
	}
	if cfg.StoreFraction < 0 || cfg.StoreFraction > 1 {
		return nil, fmt.Errorf("trace: store fraction %f out of [0,1]", cfg.StoreFraction)
	}
	if cfg.StoreFraction == 0 {
		cfg.StoreFraction = 0.4
	}
	if cfg.ActiveFraction < 0 || cfg.ActiveFraction > 1 {
		return nil, fmt.Errorf("trace: active fraction %f out of [0,1]", cfg.ActiveFraction)
	}
	if cfg.ZipfS != 0 && cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("trace: ZipfS must be > 1 (or 0 for uniform), got %f", cfg.ZipfS)
	}
	active := cfg.Homes
	if cfg.ActiveFraction > 0 {
		if a := int(float64(cfg.Homes) * cfg.ActiveFraction); a >= 1 {
			active = a
		} else {
			active = 1
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.ZipfS > 1 && cfg.Objects > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Objects-1))
	}
	pickObject := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		return rng.Intn(cfg.Objects)
	}
	stored := make([]bool, cfg.Objects)
	ops := make([]PopulationOp, 0, cfg.Ops)
	for len(ops) < cfg.Ops {
		obj := pickObject()
		kind := OpFetch
		if !stored[obj] || rng.Float64() < cfg.StoreFraction {
			kind = OpStore
			stored[obj] = true
		}
		ops = append(ops, PopulationOp{
			Home:   rng.Intn(active),
			Kind:   kind,
			Object: obj,
		})
	}
	return ops, nil
}

// Mix reports the realised store fraction.
func (t *Trace) Mix() float64 {
	if len(t.Accesses) == 0 {
		return 0
	}
	stores := 0
	for _, a := range t.Accesses {
		if a.Kind == OpStore {
			stores++
		}
	}
	return float64(stores) / float64(len(t.Accesses))
}

// TotalBytes sums the catalogue's object sizes.
func (t *Trace) TotalBytes() int64 {
	var sum int64
	for _, f := range t.Files {
		sum += f.Size
	}
	return sum
}

// ByClass partitions file indices by size bucket.
func (t *Trace) ByClass() map[SizeClass][]int {
	out := make(map[SizeClass][]int, 4)
	for i, f := range t.Files {
		c := f.Class()
		out[c] = append(out[c], i)
	}
	return out
}
