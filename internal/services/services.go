// Package services implements VStore++'s data-manipulation services: the
// OpenCV-based face detection and recognition pipeline of the home
// security use case and the x264 media conversion service (§II, §IV), as
// synthetic-but-real compute kernels plus the per-service cost profiles
// the decision layer consumes.
//
// As in the paper, "application performance depends both on the size of
// input data and on its complexity"; each service's Spec maps an input
// size to a machine.Task (CPU GHz-seconds, memory footprint,
// exploitable parallelism), while the kernel functions do deterministic
// real computation on the payload when one is materialised. "Service
// profiles ... encode the minimum resource requirements for a service for
// a given SLA"; profiles here are "determined a priori and made available
// to VStore++ when services are deployed".
//
// Face recognition reads its training set only as per-image histograms
// and lengths. A processing site that recognises many probes against one
// installed set counts it once into a TrainingSet and scores each probe
// against that; RecognizeFace, which takes the raw images, counts them on
// every call and is the reference the installed set must agree with.
package services

import (
	"encoding/json"
	"fmt"
	"strconv"

	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
	"cloud4home/internal/machine"
)

// Well-known service identifiers.
const (
	FaceDetectID    uint32 = 101
	FaceRecognizeID uint32 = 102
	X264ConvertID   uint32 = 201
)

// Spec is a service's a-priori profile: its cost model and minimum
// resource requirements.
type Spec struct {
	// Name is the service's registry name ("fdet", "frec", "x264").
	Name string `json:"name"`
	// ID disambiguates versions of a service.
	ID uint32 `json:"id"`
	// CPUGHzSecPerMB is compute demand per megabyte of input.
	CPUGHzSecPerMB float64 `json:"cpuGhzSecPerMb"`
	// MemBaseMB is the fixed working set (code, models, training data).
	MemBaseMB int64 `json:"memBaseMb"`
	// MemPerMB is additional working set per megabyte of input.
	MemPerMB float64 `json:"memPerMb"`
	// Parallelism is how many cores the service can exploit.
	Parallelism int `json:"parallelism"`
	// OutputRatio is output size / input size (1 = same size; small for
	// detection results, <1 for compressed conversions).
	OutputRatio float64 `json:"outputRatio"`
	// MinMemMB is the SLA floor: a node whose VM has less memory cannot
	// host the service at all.
	MinMemMB int64 `json:"minMemMb"`
}

// Validate reports profile errors.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("services: spec needs a name")
	}
	if s.CPUGHzSecPerMB < 0 || s.MemPerMB < 0 || s.MemBaseMB < 0 {
		return fmt.Errorf("services: %s: negative resource demand", s.Name)
	}
	if s.Parallelism < 1 {
		return fmt.Errorf("services: %s: parallelism must be ≥ 1", s.Name)
	}
	if s.OutputRatio < 0 {
		return fmt.Errorf("services: %s: negative output ratio", s.Name)
	}
	return nil
}

// Task converts an input size into the machine task the service runs.
func (s Spec) Task(inputSize int64) machine.Task {
	mb := float64(inputSize) / (1 << 20)
	return machine.Task{
		CPUGHzSec:   s.CPUGHzSecPerMB * mb,
		MemMB:       s.MemBaseMB + int64(s.MemPerMB*mb),
		Parallelism: s.Parallelism,
	}
}

// OutputSize predicts the result object's size.
func (s Spec) OutputSize(inputSize int64) int64 {
	return int64(float64(inputSize) * s.OutputRatio)
}

// Key returns the service's key-value store key: "unique keys derived
// from the service name and identifier" (§III-A).
func (s Spec) Key() ids.ID { return Key(s.Name, s.ID) }

// Key derives a service registry key from name and id: the ID of the
// string "service:<name>#<id>". The string is built in a buffer on the
// stack, so a name of up to 45 bytes costs one SHA-1 and no allocation; a
// longer one grows the buffer onto the heap.
//
// c4h:hotpath
func Key(name string, id uint32) ids.ID {
	b := make([]byte, 0, 64)
	b = append(b, "service:"...)
	b = append(b, name...)
	b = append(b, '#')
	return ids.HashBytes(strconv.AppendUint(b, uint64(id), 10))
}

// FaceDetect is the CPU-intensive face detection step (FDet in Fig 7).
func FaceDetect() Spec {
	return Spec{
		Name:           "fdet",
		ID:             FaceDetectID,
		CPUGHzSecPerMB: 6.0,
		MemBaseMB:      40,
		MemPerMB:       20,
		Parallelism:    4,
		OutputRatio:    1.0, // annotated image forwarded to recognition
		MinMemMB:       64,
	}
}

// FaceRecognize is the memory-intensive face recognition step (FRec in
// Fig 7): its working set includes the training database, so it grows
// steeply with image resolution and overwhelms small VMs.
func FaceRecognize() Spec {
	return Spec{
		Name:           "frec",
		ID:             FaceRecognizeID,
		CPUGHzSecPerMB: 3.5,
		MemBaseMB:      40,
		MemPerMB:       50,
		Parallelism:    2,
		OutputRatio:    0.0001, // just the best-match ID
		MinMemMB:       96,
	}
}

// X264Convert is the CPU-intensive .avi → .mp4 media conversion service
// (Fig 8).
func X264Convert() Spec {
	return Spec{
		Name:           "x264",
		ID:             X264ConvertID,
		CPUGHzSecPerMB: 24.0,
		MemBaseMB:      60,
		MemPerMB:       6,
		Parallelism:    4,
		OutputRatio:    0.45,
		MinMemMB:       96,
	}
}

// Builtin returns all built-in service profiles.
func Builtin() []Spec {
	return []Spec{FaceDetect(), FaceRecognize(), X264Convert()}
}

// Registration is the value stored in the key-value store for a service:
// "a value that is a list of nodes supporting a service along with a
// service policy" (§IV).
//
// A reader that keeps a decoded Registration for later reads (core's
// decision layer does, one per version of the record) hands the same
// Nodes to every caller: a caller must treat Nodes as read-only.
type Registration struct {
	Spec   Spec     `json:"spec"`
	Nodes  []string `json:"nodes"`  // addrs currently hosting the service
	Policy string   `json:"policy"` // routing policy name for this service
}

// Marshal serializes the registration.
func (r Registration) Marshal() ([]byte, error) { return json.Marshal(r) }

// UnmarshalRegistration parses a stored registration.
func UnmarshalRegistration(data []byte) (Registration, error) {
	var r Registration
	if err := json.Unmarshal(data, &r); err != nil {
		return Registration{}, fmt.Errorf("services: decode registration: %w", err)
	}
	return r, nil
}

// Register announces that node addr hosts the service, merging with any
// existing registration ("every node registers its list of services with
// the key-value store").
func Register(store *kv.Store, from ids.ID, spec Spec, addr, policy string) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	reg := Registration{Spec: spec, Policy: policy}
	if gr, err := store.Get(from, spec.Key()); err == nil {
		if existing, derr := UnmarshalRegistration(gr.Value.Data); derr == nil {
			reg = existing
			if policy != "" {
				reg.Policy = policy
			}
		}
	}
	for _, n := range reg.Nodes {
		if n == addr {
			return putRegistration(store, from, reg)
		}
	}
	reg.Nodes = append(reg.Nodes, addr)
	return putRegistration(store, from, reg)
}

// Deregister removes a node from a service's host list.
func Deregister(store *kv.Store, from ids.ID, spec Spec, addr string) error {
	gr, err := store.Get(from, spec.Key())
	if err != nil {
		return fmt.Errorf("services: deregister %s: %w", spec.Name, err)
	}
	reg, err := UnmarshalRegistration(gr.Value.Data)
	if err != nil {
		return err
	}
	kept := reg.Nodes[:0]
	for _, n := range reg.Nodes {
		if n != addr {
			kept = append(kept, n)
		}
	}
	reg.Nodes = kept
	return putRegistration(store, from, reg)
}

// Discover returns the service's registration — the "'value' field for
// the service [that] is used to determine other possible targets"
// (§III-B).
func Discover(store *kv.Store, from ids.ID, name string, id uint32) (Registration, error) {
	gr, err := store.Get(from, Key(name, id))
	if err != nil {
		return Registration{}, fmt.Errorf("services: discover %s: %w", name, err)
	}
	return UnmarshalRegistration(gr.Value.Data)
}

func putRegistration(store *kv.Store, from ids.ID, reg Registration) error {
	data, err := reg.Marshal()
	if err != nil {
		return err
	}
	_, err = store.Put(from, reg.Spec.Key(), data, kv.Overwrite)
	return err
}
