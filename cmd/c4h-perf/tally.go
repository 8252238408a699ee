//go:build linux

package main

import (
	"strings"
	"time"

	"cloud4home/internal/core"
	"cloud4home/internal/objstore"
	"cloud4home/internal/policy"
)

// traffic is a reading of the counters the simulated network and the
// cloud keep, taken at a phase boundary.
type traffic struct {
	msgs, xfers, bytes, requests int64
	usd                          float64
}

func readTraffic(home *core.Home) traffic {
	var t traffic
	t.msgs, t.xfers, t.bytes = home.Net().Traffic()
	if cloud := home.Cloud(); cloud != nil {
		sp := cloud.Spend()
		t.requests, t.usd = sp.Requests, sp.USD
	}
	return t
}

// fill writes the netsim and cloudsim counters of a phase of ops ops that
// began at reading before and ended at t.
func (t traffic) fill(l map[string]float64, before traffic, ops float64) {
	l["netsim.messages_per_op"] = ratio(float64(t.msgs-before.msgs), ops)
	l["netsim.transfers_per_op"] = ratio(float64(t.xfers-before.xfers), ops)
	l["netsim.bytes_per_op"] = ratio(float64(t.bytes-before.bytes), ops)
	l["cloudsim.requests_per_op"] = ratio(float64(t.requests-before.requests), ops)
	l["cloudsim.spend_musd"] = t.usd * 1000
}

// The tallies below sum the breakdown structs of one client's successful
// ops. Each client owns one, and they are merged after the clients have
// finished, so nothing is shared while the clock runs. add reports
// whether the op's phases fit inside its total.

type fetchTally struct {
	n, local, peer, cloud                             float64
	dhtLookup, interNode, interDomain, retries, total time.Duration
}

func (t *fetchTally) add(res core.FetchResult, self string) bool {
	b := res.Breakdown
	t.n++
	switch {
	case strings.HasPrefix(res.Source, "s3://"):
		t.cloud++
	case res.Source == self:
		t.local++
	default:
		t.peer++
	}
	t.dhtLookup += b.DHTLookup
	t.interNode += b.InterNode
	t.interDomain += b.InterDomain
	t.retries += b.Retries
	t.total += b.Total
	return b.DHTLookup+b.InterNode+b.InterDomain+b.Retries <= b.Total
}

func (t *fetchTally) merge(o fetchTally) {
	t.n, t.local, t.peer, t.cloud = t.n+o.n, t.local+o.local, t.peer+o.peer, t.cloud+o.cloud
	t.dhtLookup += o.dhtLookup
	t.interNode += o.interNode
	t.interDomain += o.interDomain
	t.retries += o.retries
	t.total += o.total
}

func (t fetchTally) fill(l map[string]float64) {
	l["core.fetch.dht_lookup_ms_mean"] = ratio(ms(t.dhtLookup), t.n)
	l["core.fetch.inter_node_ms_mean"] = ratio(ms(t.interNode), t.n)
	l["core.fetch.inter_domain_ms_mean"] = ratio(ms(t.interDomain), t.n)
	l["core.fetch.retries_ms_mean"] = ratio(ms(t.retries), t.n)
	l["core.fetch.unattributed_ms_mean"] = ratio(ms(t.total-t.dhtLookup-t.interNode-t.interDomain-t.retries), t.n)
	l["core.fetch.local_share"] = ratio(t.local, t.n)
	l["core.fetch.peer_share"] = ratio(t.peer, t.n)
	l["core.fetch.cloud_share"] = ratio(t.cloud, t.n)
}

type storeTally struct {
	n, local, peer, cloud         float64
	interDomain, placement, total time.Duration
}

func (t *storeTally) add(res core.StoreResult) bool {
	t.n++
	switch res.Target {
	case policy.TargetLocal:
		t.local++
	case policy.TargetPeer:
		t.peer++
	default:
		t.cloud++
	}
	t.interDomain += res.InterDomain
	t.placement += res.Placement
	t.total += res.Total
	return res.InterDomain+res.Placement <= res.Total
}

func (t *storeTally) merge(o storeTally) {
	t.n, t.local, t.peer, t.cloud = t.n+o.n, t.local+o.local, t.peer+o.peer, t.cloud+o.cloud
	t.interDomain += o.interDomain
	t.placement += o.placement
	t.total += o.total
}

func (t storeTally) fill(l map[string]float64) {
	l["core.store.inter_domain_ms_mean"] = ratio(ms(t.interDomain), t.n)
	l["core.store.placement_ms_mean"] = ratio(ms(t.placement), t.n)
	l["core.store.unattributed_ms_mean"] = ratio(ms(t.total-t.interDomain-t.placement), t.n)
	l["core.store.local_share"] = ratio(t.local, t.n)
	l["core.store.peer_share"] = ratio(t.peer, t.n)
	l["core.store.cloud_share"] = ratio(t.cloud, t.n)
}

type processTally struct {
	n, requester, owner, decided                 float64
	decision, inputMove, exec, outputMove, total time.Duration
}

func (t *processTally) add(res core.ProcessResult) bool {
	b := res.Breakdown
	t.n++
	switch res.Mode {
	case core.ModeRequester:
		t.requester++
	case core.ModeOwner:
		t.owner++
	default:
		t.decided++
	}
	t.decision += b.Decision
	t.inputMove += b.InputMove
	t.exec += b.Exec
	t.outputMove += b.OutputMove
	t.total += b.Total
	return b.Decision+b.InputMove+b.Exec+b.OutputMove <= b.Total
}

func (t *processTally) merge(o processTally) {
	t.n, t.requester, t.owner, t.decided = t.n+o.n, t.requester+o.requester, t.owner+o.owner, t.decided+o.decided
	t.decision += o.decision
	t.inputMove += o.inputMove
	t.exec += o.exec
	t.outputMove += o.outputMove
	t.total += o.total
}

func (t processTally) fill(l map[string]float64) {
	l["core.process.decision_ms_mean"] = ratio(ms(t.decision), t.n)
	l["core.process.input_move_ms_mean"] = ratio(ms(t.inputMove), t.n)
	l["core.process.exec_ms_mean"] = ratio(ms(t.exec), t.n)
	l["core.process.output_move_ms_mean"] = ratio(ms(t.outputMove), t.n)
	l["core.process.unattributed_ms_mean"] = ratio(ms(t.total-t.decision-t.inputMove-t.exec-t.outputMove), t.n)
	l["core.process.requester_share"] = ratio(t.requester, t.n)
	l["core.process.owner_share"] = ratio(t.owner, t.n)
	l["core.process.decided_share"] = ratio(t.decided, t.n)
}

// Op kinds in per-op records and the digest.
const (
	kindFetch = iota + 1
	kindStore
	kindDelete
	kindProcess
	kindGet
	kindPut
)

// opRec is one completed op, kept per client in issue order so the
// digest does not depend on how the host interleaved the clients.
type opRec struct {
	kind  uint8
	ok    bool
	total time.Duration
	size  int64
	where string // fetch source, store location or process target
}

// simClient is what a simulated workload's client loop shares: where it
// records, and the session it issues ops through.
type simClient struct {
	id   int
	sess *core.Session
	now  func() time.Duration // virtual time since the testbed's epoch
	m    *meter
	rec  *recorder
}

// delete removes one of the client's own objects as a timed, recorded op.
func (c simClient) delete(name string, op int) opRec {
	t0 := c.now()
	sp := c.rec.begin("delete", c.id, op, t0)
	err := c.sess.DeleteObject(name)
	t1 := c.now()
	c.rec.end(sp, t1)
	c.m.tick()
	return opRec{kind: kindDelete, ok: err == nil, total: t1 - t0}
}

func storeUsed(n *core.Node) int64 {
	var used int64
	for _, bin := range []objstore.Bin{objstore.Mandatory, objstore.Voluntary} {
		if u, err := n.ObjectStore().Usage(bin); err == nil {
			used += u.Used
		}
	}
	return used
}

// checkOccupancy compares what the bins (and the bucket) hold with the
// live set the harness tracked: a leak in the delete path shows as a
// ratio above 1.
func checkOccupancy(ph *phase, nodes []*core.Node, bucket, live int64) {
	used := bucket
	for _, n := range nodes {
		used += storeUsed(n)
	}
	ph.layer["objstore.used_bytes_per_live_byte"] = ratio(float64(used), float64(live))
	if used != live {
		ph.violate("bins and bucket hold %d bytes, live set is %d", used, live)
	}
}
