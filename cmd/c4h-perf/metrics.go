//go:build linux

package main

import (
	"math"
	"sort"
)

// metric is one declared number: BENCHMARK.json mirrors these tables and
// TestBenchmarkJSONMatchesTables keeps the two from drifting apart.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, on every workload. The
// host_* metrics and setup_s are real time on the machine running the
// benchmark; client_* are on the clock the workload's clients live on —
// virtual (internal/vclock) for home-trace, city-meta and home-process,
// wall for daemon-loopback.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"host_cpu_us_per_op", "us", "lower", 0.25},
	{"host_allocs_per_op", "count", "lower", 0.03},
	{"host_bytes_per_op", "bytes", "lower", 0.03},
	{"host_peak_rss_mb", "MB", "lower", 0.20},
	{"client_read_p50_ms", "ms", "lower", 0.10},
	{"client_read_p95_ms", "ms", "lower", 0.15},
	{"client_write_p50_ms", "ms", "lower", 0.10},
	{"client_write_p95_ms", "ms", "lower", 0.10},
	{"client_goodput_mbps", "MB/s", "higher", 0.20},
}

// perLayer names use the module's package name. Counters and virtual-time
// budgets come from the traced workload run and read 0 on a workload that
// never enters the layer; host_* timings come from the layer probes.
var perLayer = []metric{
	// core: virtual budget per op, from the breakdown structs.
	{"core.fetch.dht_lookup_ms_mean", "ms", "lower", 0},
	{"core.fetch.inter_node_ms_mean", "ms", "lower", 0},
	{"core.fetch.inter_domain_ms_mean", "ms", "lower", 0},
	{"core.fetch.retries_ms_mean", "ms", "lower", 0},
	{"core.fetch.unattributed_ms_mean", "ms", "lower", 0},
	{"core.store.inter_domain_ms_mean", "ms", "lower", 0},
	{"core.store.placement_ms_mean", "ms", "lower", 0},
	{"core.store.unattributed_ms_mean", "ms", "lower", 0},
	{"core.process.decision_ms_mean", "ms", "lower", 0},
	{"core.process.input_move_ms_mean", "ms", "lower", 0},
	{"core.process.exec_ms_mean", "ms", "lower", 0},
	{"core.process.output_move_ms_mean", "ms", "lower", 0},
	{"core.process.unattributed_ms_mean", "ms", "lower", 0},
	{"core.fetch.virt_p99_ms", "ms", "lower", 0},
	{"core.store.virt_p99_ms", "ms", "lower", 0},
	{"core.process.virt_p99_ms", "ms", "lower", 0},
	{"core.fetch.local_share", "share", "higher", 0},
	{"core.fetch.peer_share", "share", "lower", 0},
	{"core.fetch.cloud_share", "share", "lower", 0},
	{"core.store.local_share", "share", "higher", 0},
	{"core.store.peer_share", "share", "lower", 0},
	{"core.store.cloud_share", "share", "lower", 0},
	{"core.process.requester_share", "share", "higher", 0},
	{"core.process.owner_share", "share", "higher", 0},
	{"core.process.decided_share", "share", "lower", 0},
	{"core.fetch.host_us_per_op", "us", "lower", 0},
	{"core.store.host_us_per_op", "us", "lower", 0},
	{"core.delete.host_us_per_op", "us", "lower", 0},
	{"core.process.host_us_per_op", "us", "lower", 0},

	{"netsim.messages_per_op", "count", "lower", 0},
	{"netsim.transfers_per_op", "count", "lower", 0},
	{"netsim.bytes_per_op", "bytes", "lower", 0},
	{"netsim.transfer.host_us_per_call", "us", "lower", 0},
	{"netsim.message.host_ns_per_call", "ns", "lower", 0},

	{"vclock.sleep.host_ns_1actor", "ns", "lower", 0},
	{"vclock.sleep.host_ns_6actors", "ns", "lower", 0},

	{"kv.hops_per_get", "count", "lower", 0},
	{"kv.hops_per_put", "count", "lower", 0},
	{"kv.cache_hit_share", "share", "higher", 0},
	{"kv.stale_read_share", "share", "lower", 0},
	{"kv.get.virt_p99_ms", "ms", "lower", 0},
	{"kv.get.host_ns_per_call", "ns", "lower", 0},
	{"kv.put.host_ns_per_call", "ns", "lower", 0},

	{"overlay.route.host_ns_per_call", "ns", "lower", 0},
	{"overlay.join.host_us_per_node", "us", "lower", 0},
	{"overlay.arena_bytes", "bytes", "lower", 0},

	{"rbtree.insert.host_ns", "ns", "lower", 0},
	{"rbtree.get.host_ns", "ns", "lower", 0},
	{"ids.hash.host_ns", "ns", "lower", 0},

	{"monitor.lookup.host_us_per_call", "us", "lower", 0},
	{"policy.decide.host_ns_per_call", "ns", "lower", 0},

	{"xenchan.transfer.host_us_per_mb", "us", "lower", 0},
	{"xenchan.cost.virt_ms_per_mb", "ms", "lower", 0},

	{"objstore.put.host_us_per_mb", "us", "lower", 0},
	{"objstore.get.host_us_per_mb", "us", "lower", 0},
	{"objstore.used_bytes_per_live_byte", "ratio", "lower", 0},

	{"services.fdet.host_mb_per_s", "MB/s", "higher", 0},
	{"services.frec.host_mb_per_s", "MB/s", "higher", 0},
	{"services.x264.host_mb_per_s", "MB/s", "higher", 0},

	{"cloudsim.requests_per_op", "count", "lower", 0},
	{"cloudsim.spend_musd", "mUSD", "lower", 0},

	{"command.marshal.host_ns", "ns", "lower", 0},
	{"command.unmarshal.host_ns", "ns", "lower", 0},
	{"daemon.stats_rtt_us_p50_idle", "us", "lower", 0},
	{"daemon.stats_rtt_us_p50_busy", "us", "lower", 0},
	{"daemon.overhead_ms_mean", "ms", "lower", 0},
	{"daemon.conn_speedup", "ratio", "higher", 0},

	{"trace.overhead_pct", "%", "lower", 0},
}

// percentile is the nearest-rank percentile of xs, which it sorts.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when the layer saw no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
