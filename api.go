package cloud4home

// This file is the library's public API: a curated re-export of the
// internal packages, so downstream users build home clouds without
// importing internal/ paths. The examples/ directory uses only this
// surface.

import (
	"cloud4home/internal/cloudsim"
	"cloud4home/internal/core"
	"cloud4home/internal/kv"
	"cloud4home/internal/machine"
	"cloud4home/internal/monitor"
	"cloud4home/internal/netsim"
	"cloud4home/internal/objstore"
	"cloud4home/internal/policy"
	"cloud4home/internal/services"
	"cloud4home/internal/vclock"
)

// Clocks. There is one clock engine, the discrete-event VirtualClock.
// Experiments run it unpaced, deterministic and instant; a daemon runs it
// paced to the wall clock, so modeled costs take real time.
type (
	// Clock is the time source every component charges costs to.
	Clock = vclock.Clock
	// VirtualClock is the discrete-event clock. It has no lock: only the
	// goroutine inside its Run and the code Run is executing may call its
	// methods, so a goroutine of your own must not read Now while Run
	// drives the clock; on a paced clock it hands work in with Post.
	VirtualClock = vclock.Virtual
)

// NewVirtualClock returns an unpaced virtual clock starting at the given
// epoch.
var NewVirtualClock = vclock.NewVirtual

// NewPacedClock returns a virtual clock paced to the wall clock, starting
// now.
var NewPacedClock = vclock.NewPaced

// The home cloud and its nodes.
type (
	// Home is one Cloud4Home deployment: overlay, metadata store, LAN,
	// nodes, and optionally a remote cloud.
	Home = core.Home
	// HomeOptions configures NewHome.
	HomeOptions = core.HomeOptions
	// KVOptions configures the metadata store (replication, caching).
	KVOptions = kv.Options
	// Node is one VStore++ participant device.
	Node = core.Node
	// NodeConfig describes a device joining the home cloud.
	NodeConfig = core.NodeConfig
	// MachineSpec describes a device's VM (cores, clock, memory,
	// battery).
	MachineSpec = machine.Spec
)

// NewHome builds an empty home cloud on the given clock.
var NewHome = core.NewHome

// Sessions and operations (the VStore++ API of §III-B).
type (
	// Session is an application's guest-VM connection to VStore++.
	Session = core.Session
	// StoreOptions selects blocking behaviour and a store policy.
	StoreOptions = core.StoreOptions
	// StoreResult reports a store operation.
	StoreResult = core.StoreResult
	// FetchResult reports a fetch, with the Table I cost breakdown.
	FetchResult = core.FetchResult
	// ProcessResult reports a process / fetch-and-process operation.
	ProcessResult = core.ProcessResult
	// ObjectMeta is an object's metadata record in the key-value store.
	ObjectMeta = core.ObjectMeta
	// OpStats is a node's cumulative operation counters.
	OpStats = core.OpStats
)

// Process execution modes (§III-B's three cases).
const (
	ModeRequester = core.ModeRequester
	ModeOwner     = core.ModeOwner
	ModeDecided   = core.ModeDecided
)

// Errors.
var (
	ErrObjectNotFound  = core.ErrObjectNotFound
	ErrServiceNotFound = core.ErrServiceNotFound
	ErrNoCloud         = core.ErrNoCloud
	ErrAccessDenied    = core.ErrAccessDenied
)

// Store-placement policies (§III-B).
type (
	// StorePolicy guides where store operations place objects.
	StorePolicy = policy.StorePolicy
	// DefaultLocalPolicy is the paper's default: local mandatory bin,
	// overflowing to peers' voluntary bins, then the cloud.
	DefaultLocalPolicy = policy.DefaultLocal
	// SizeThresholdPolicy places objects at or above a size remotely.
	SizeThresholdPolicy = policy.SizeThreshold
	// PrivacyTypesPolicy keeps private content home, shareable remote.
	PrivacyTypesPolicy = policy.PrivacyTypes
)

// Processing-target decision policies (§III-A).
type (
	// DecisionPolicy selects the execution site for process operations.
	DecisionPolicy = policy.DecisionPolicy
	// PerformancePolicy minimises end-to-end completion time.
	PerformancePolicy = policy.Performance
	// BalancedPolicy prefers the least-loaded eligible node.
	BalancedPolicy = policy.Balanced
	// BatterySaverPolicy avoids drained portable devices.
	BatterySaverPolicy = policy.BatterySaver
)

// Services.
type (
	// ServiceSpec is a service's cost profile and SLA floor.
	ServiceSpec = services.Spec
)

// Built-in service profiles and identifiers.
var (
	FaceDetectService    = services.FaceDetect
	FaceRecognizeService = services.FaceRecognize
	X264ConvertService   = services.X264Convert
)

// Built-in service IDs.
const (
	FaceDetectID    = services.FaceDetectID
	FaceRecognizeID = services.FaceRecognizeID
	X264ConvertID   = services.X264ConvertID
)

// The remote public cloud.
type (
	// Cloud is the S3/EC2-like remote cloud behind the WAN model.
	Cloud = cloudsim.Cloud
)

// NewCloud builds a remote cloud reachable from a home's network.
var NewCloud = cloudsim.New

// ExtraLargeInstance is the paper's EC2 instance type for services.
var ExtraLargeInstance = cloudsim.ExtraLargeSpec

// Storage bins (§III).
type (
	// Object is local object-store metadata.
	Object = objstore.Object
	// Bin selects mandatory vs voluntary storage.
	Bin = objstore.Bin
)

// Bin values.
const (
	Mandatory = objstore.Mandatory
	Voluntary = objstore.Voluntary
)

// Resource monitoring.
type (
	// Resources is a node's published resource record.
	Resources = monitor.Resources
)

// Network model handles (for degradation / adaptation scenarios).
type (
	// NetResource is a shared network capacity (NIC, LAN fabric, WAN).
	NetResource = netsim.Resource
)
