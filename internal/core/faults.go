package core

// FaultConfig enables the fault-tolerance layer on the VStore++ data
// path. The zero value reproduces the paper's behaviour exactly: a fetch
// or process whose payload holder disappeared fails with
// ErrObjectNotFound, and a crash permanently loses the crashed node's
// best-effort payload copies.
type FaultConfig struct {
	// Fallback turns holder loss from an error into a retry ladder. A
	// fetch whose primary is gone or lacks the payload — or, streaming
	// into a pipeline, dies mid-transfer — reads a surviving whole copy,
	// else k coded shards, then asks the remote cloud with a charged
	// probe, charging each failed attempt's modeled cost into
	// FetchBreakdown.Retries. A fetch from a neighbour home and the
	// process path's input move substitute a surviving whole copy (the
	// input move also the cloud's) for a lost primary.
	Fallback bool
	// Repair restores redundancy after a crash: one elected holder of each
	// affected object (see Node.repair) takes over as primary if needed,
	// re-places the missing replicas or shards and rewrites the object's
	// metadata, mirroring the kv layer's metadata repair. Surfaced
	// through the ObjectsRepaired / ReplicasRestored / ShardsRestored
	// counters.
	Repair bool
}
