package core

// PerfConfig gates the hot-path performance work that is still a choice.
// The zero value reproduces the paper's behaviour bit-for-bit. SimShards
// is *result*-preserving — it changes what the host CPU does per
// simulated event, never which events happen or when. CoalesceFetch is a
// modeled behaviour change: concurrent fetches of one hot object share a
// single wire transfer, which is the point.
//
// The other host-side optimisations measured here (lazily seeded jitter
// streams, the resource-record decode memo) were bit-identical and faster
// on every workload, so they are simply how the simulator works; see
// DESIGN.md "Hot-path performance".
type PerfConfig struct {
	// SimShards, when positive, runs the virtual clock's sharded engine:
	// per-shard sleeper queues merged deterministically at every advance,
	// so each heap operation works on a queue 1/shards the size.
	// Schedules are identical at any shard count. Applied by the cluster
	// layer at testbed construction (the clock outlives any single home).
	SimShards int
	// CoalesceFetch merges concurrent remote fetches of the same object:
	// the first requester runs the wire transfer, followers park on a
	// deterministic event and are charged exactly the virtual time until
	// the leader's bytes arrive, then copy the payload locally.
	CoalesceFetch bool
}
