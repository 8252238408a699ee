package core

// ScaleConfig gates the city-scale simulator core. The zero value
// reproduces the repository's previous behaviour bit-for-bit: the default
// virtual-clock engine, eager periodic monitors, and no aggregation tier.
// CalendarQueue is *result*-preserving — it changes host-side CPU per
// simulated event, never which events happen or when. LazyMonitors and
// SuperPeerRegions are modeled behaviour changes: fewer publish events
// and a different hop structure are the point. (The membership is always
// interned once in a shared arena — internal/overlay/arena.go — so
// aggregate membership memory is O(N) at any size.)
type ScaleConfig struct {
	// CalendarQueue runs the virtual clock on the calendar-queue engine:
	// O(1) amortized enqueue/dequeue over deadline buckets plus targeted
	// single-sleeper wakeups, replacing the O(log N) heap and the
	// broadcast that woke every sleeper per advance. Wake order — and
	// therefore every schedule — is identical. Applied by the cluster
	// layer at testbed construction (the clock outlives any single home).
	CalendarQueue bool
	// LazyMonitors materialises resource records on demand instead of
	// running one periodic publisher goroutine per node: a node's record
	// is published when a decision path first reads it and refreshed only
	// once its validity window (the monitor period) has lapsed. At city
	// scale this removes N always-on sleepers and N puts per period for
	// records nobody reads.
	LazyMonitors bool
	// SuperPeerRegions, when > 1, partitions the ID space into that many
	// contiguous regions and routes inter-region traffic through each
	// region's super-peer (its lowest-addressed member), giving the
	// home → regional aggregator → owner hierarchy a city of homes needs
	// instead of a flat hop sequence. Lookup results (owners, values) are
	// unchanged — only the hop structure differs; ≤ 1 keeps flat routing.
	SuperPeerRegions int
}

// Enabled reports whether any gate is on.
func (s ScaleConfig) Enabled() bool {
	return s.CalendarQueue || s.LazyMonitors || s.SuperPeerRegions > 1
}
