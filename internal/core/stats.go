package core

import "time"

// OpStats counts a node's VStore++ activity. All fields are cumulative
// since the node joined. A node keeps its counters in an OpStats of its
// own, bumped in place by the actor holding the clock's turn; OpStats
// returns a copy.
type OpStats struct {
	Stores       int64
	Fetches      int64
	Processes    int64
	Deletes      int64
	BytesStored  int64
	BytesFetched int64
	// CacheHits/CacheMisses count dom0 data-cache outcomes on remote
	// fetches; both stay zero when the cache is disabled.
	CacheHits   int64
	CacheMisses int64
	// ShardsExecuted counts the shards of simulated sharded executions;
	// zero while Config.Workers ≤ 1.
	ShardsExecuted int64
	// OverlapSaved accumulates the latency recovered by overlapping
	// input movement with execution, versus running the phases serially.
	OverlapSaved time.Duration
	// SpecLaunches counts process operations hedged onto two candidates;
	// SpecWins counts hedges where the secondary finished first, and
	// SpecCancels counts losers that aborted at a phase boundary.
	SpecLaunches int64
	SpecWins     int64
	SpecCancels  int64
	// FetchRetries counts fetches (and process input moves) that entered
	// the fault-tolerance fallback ladder after losing a holder; zero
	// while Config.Fallback is off.
	FetchRetries int64
	// ObjectsRepaired counts objects whose metadata this node rewrote
	// during post-crash payload repair; ReplicasRestored counts the fresh
	// payload copies it placed doing so. Both stay zero while
	// Config.Repair is off.
	ObjectsRepaired  int64
	ReplicasRestored int64
	// CloudProbes counts charged HEAD round trips (Cloud.Stat) this node
	// issued asking a backend whether it holds an object — the fallback
	// ladder's cloud rung and the process path's input-move substitute.
	// Each one burned real modeled WAN time; the free Has oracle is
	// never consulted on the data path.
	CloudProbes int64
	// ShardsPlaced counts erasure-coded shards this node pushed at store
	// time; ShardsRestored counts shards re-placed during post-crash
	// repair; ShardReconstructs counts payload rebuilds from k shards on
	// the fetch/repair path. All stay zero unless Config.ErasureK/N
	// set a coded 1 < k < n; k = 1's whole copies are not shards.
	ShardsPlaced      int64
	ShardsRestored    int64
	ShardReconstructs int64
	// AsyncPlaceDrops counts non-blocking stores whose background
	// placement failed — the object was accepted into dom0 but never
	// reached stable storage (the prototype's degrade-to-drop path).
	AsyncPlaceDrops int64
	// FederatedProbes counts neighbour-home metadata queries issued by
	// this node's fetch misses; the federated lookup memo exists to keep
	// this from growing linearly in peers × misses.
	FederatedProbes int64
	// CoalescedFetches counts remote fetches that joined another in-flight
	// fetch of the same object instead of running their own wire transfer;
	// zero unless Config.CoalesceFetch is on.
	CoalescedFetches int64
	// KVHops counts every routing hop this node's metadata operations
	// took; SuperPeerHops the subset that landed on a regional super-peer
	// (zero unless Config.SuperPeerRegions > 1), so KVHops −
	// SuperPeerHops is the home-tier remainder.
	KVHops        int64
	SuperPeerHops int64
	// ArenaBytes is a snapshot-time gauge of the shared membership
	// arena's resident bytes (whole-mesh, not per-node).
	ArenaBytes int64
}

// OpStats returns the node's cumulative operation counters, plus the
// snapshot-time arena gauge.
func (n *Node) OpStats() OpStats {
	st := n.ops
	st.ArenaBytes = n.home.mesh.ArenaBytes()
	return st
}
