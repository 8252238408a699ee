package core

import "fmt"

// FaultConfig enables the fault-tolerance layer on the VStore++ data
// path. The zero value reproduces the paper's behaviour exactly: a fetch
// or process whose payload holder disappeared fails with
// ErrObjectNotFound, and a crash permanently loses the crashed node's
// best-effort payload copies.
type FaultConfig struct {
	// Fallback turns holder loss from an error into a retry ladder: the
	// fetch gathers the object's surviving pieces (a whole copy, else k
	// coded shards), then tries the remote cloud, charging each failed
	// attempt's modeled cost into FetchBreakdown.Retries. Applies to fetchToDom0 (plain and
	// pipelined), striped fetches (via their sequential fallback),
	// federated fetches, and the process path's input move.
	Fallback bool
	// Repair restores redundancy after a crash: one elected holder of each
	// affected object (see Node.repair) takes over as primary if needed,
	// re-places the missing replicas or shards and rewrites the object's
	// metadata, mirroring the kv layer's metadata repair. Surfaced
	// through the ObjectsRepaired / ReplicasRestored / ShardsRestored
	// counters.
	Repair bool
}

// fetchViaFallback is the retry ladder fetchRemote takes when the holder
// is gone or died mid-transfer: the object's live pieces (gather), then
// the remote cloud (probed with a charged Stat HEAD, never the free Has
// oracle); the dom0 cache was consulted before the wire was tried. Failed
// attempts charge their modeled cost into bd.Retries; the successful
// rung's wire time lands in bd.InterNode as usual, and its payload fills
// the cache like a direct fetch does. A non-nil sink receives the payload
// through the guest channel so pipelined accounting stays consistent
// across retries.
func (n *Node) fetchViaFallback(meta ObjectMeta, sink *domainSink, bd FetchBreakdown) (ObjectMeta, []byte, string, FetchBreakdown, error) {
	n.ops.fetchRetries.Add(1)

	// Rung 1: the object's live copies — a whole copy, else k shards.
	if data, src, ok := n.gather(meta, sink, &bd); ok {
		n.cacheFill(meta, data)
		return meta, data, src, bd, nil
	}

	// Rung 2: the remote cloud. Whether it holds a copy is not knowable
	// for free — a real S3 endpoint answers nothing without a round trip —
	// so the probe is a charged Stat HEAD request whose cost lands in
	// bd.Retries either way (it is ladder overhead, not useful transfer).
	if cloud, err := n.home.backendFor(meta.Backend); err == nil {
		probe := n.clock.Now()
		has := n.cloudProbe(cloud, meta.Name)
		bd.Retries += n.clock.Now().Sub(probe)
		if has {
			attempt := n.clock.Now()
			_, data, d, err := cloud.FetchObject(n.nic, meta.Name)
			if err == nil {
				if sink != nil && meta.Size > 0 {
					sink.onChunk(meta.Size)
				}
				bd.InterNode += d
				n.cacheFill(meta, data)
				return meta, data, cloud.URL(meta.Name), bd, nil
			}
			bd.Retries += n.clock.Now().Sub(attempt)
		}
	}

	return meta, nil, "", bd, fmt.Errorf("%w: %q (no surviving copy)", ErrObjectNotFound, meta.Name)
}
