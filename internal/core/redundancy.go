package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"cloud4home/internal/erasure"
	"cloud4home/internal/netsim"
	"cloud4home/internal/objstore"
)

// This file is the one place that knows how a home-tier object is made
// redundant and brought back. Beside its primary whole copy (Location),
// an object carries pieces of a (k, n) code in peers' voluntary bins, any
// k of which rebuild the payload:
//
//   - ObjectMeta.Replicas are pieces of a k = 1 code: whole copies stored
//     under the object's own name (DataPlaneConfig.DataReplicas of them);
//   - ObjectMeta.Shards are pieces of an (ErasureK, ErasureN) Reed–Solomon
//     code stored under shardName (FederationConfig.ErasureK/ErasureN).
//
// Placement, gather, repair and evacuation below are written once over
// that view; the metadata record's wire format is untouched.

// piece is one redundant bin object: its index in the code and the
// address of the node holding it. Whole copies are interchangeable, so at
// k = 1 the index is only the position in Replicas.
type piece struct {
	index int
	addr  string
}

// heldPiece is a piece whose holder is alive and still has it, under the
// bin-level name bin.
type heldPiece struct {
	piece
	node *Node
	bin  string
}

// coded reports whether the object's pieces are k-of-n shards rather
// than whole copies.
func (m ObjectMeta) coded() bool { return m.ErasureK > 0 && m.ErasureN > m.ErasureK }

// pieces lists the object's redundant pieces in metadata order. An
// unprotected object has none, and listing them allocates nothing.
func (m ObjectMeta) pieces() []piece {
	var ps []piece
	if m.coded() {
		for _, s := range m.Shards {
			ps = append(ps, piece{s.Index, s.Addr})
		}
		return ps
	}
	for i, addr := range m.Replicas {
		ps = append(ps, piece{i, addr})
	}
	return ps
}

// setPieces writes the piece list back into the record: shards sorted by
// index, replicas in the order given.
func (m *ObjectMeta) setPieces(ps []piece) {
	m.Replicas, m.Shards = nil, nil
	if !m.coded() {
		for _, p := range ps {
			m.Replicas = append(m.Replicas, p.addr)
		}
		return
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].index < ps[j].index })
	for _, p := range ps {
		m.Shards = append(m.Shards, ShardRef{Index: p.index, Addr: p.addr})
	}
}

// pieceName is the bin-level name piece index is stored under.
func (m ObjectMeta) pieceName(index int) string {
	if m.coded() {
		return shardName(m.Name, index)
	}
	return m.Name
}

// pieceSize is the payload size of each piece.
func (m ObjectMeta) pieceSize() int64 {
	if m.coded() {
		return erasure.ShardSize(m.Size, m.ErasureK)
	}
	return m.Size
}

// wantPieces is how many pieces the object should have: the code's n for
// shards, this node's configured DataReplicas for whole copies (the
// record does not carry a replica target).
func (n *Node) wantPieces(m ObjectMeta) int {
	if m.coded() {
		return m.ErasureN
	}
	return n.cfg.DataPlane.DataReplicas
}

// missingIndices returns the indices in [0, total) that have lacks.
func missingIndices(have []piece, total int) []int {
	if total <= len(have) {
		return nil
	}
	taken := make([]bool, total)
	for _, p := range have {
		if p.index >= 0 && p.index < total {
			taken[p.index] = true
		}
	}
	var missing []int
	for i, t := range taken {
		if !t {
			missing = append(missing, i)
		}
	}
	return missing
}

// objectName is the object a bin-level name belongs to: a shard's parent,
// or the name itself.
func objectName(bin string) string {
	if parent, _, isShard := parseShardName(bin); isShard {
		return parent
	}
	return bin
}

// holderGone is a TransferReq.Cancel hook that abandons a pull once its
// source has left the home.
func (n *Node) holderGone(h *Node) func() bool {
	return func() bool {
		_, alive := n.home.Node(h.addr)
		return !alive
	}
}

// livePieces returns the pieces whose holder is alive and still has its
// bin object, in metadata order.
func (h *Home) livePieces(m ObjectMeta) []heldPiece {
	var live []heldPiece
	for _, p := range m.pieces() {
		bin := m.pieceName(p.index)
		if peer, ok := h.Node(p.addr); ok && peer.store.Has(bin) {
			live = append(live, heldPiece{p, peer, bin})
		}
	}
	return live
}

// wholeCopies returns the live nodes that hold the full payload: the
// primary first, then — for a k = 1 code — the replica holders in
// metadata order.
func (h *Home) wholeCopies(m ObjectMeta) []*Node {
	var whole []*Node
	if primary, ok := h.Node(m.Location); ok && primary.store.Has(m.Name) {
		whole = append(whole, primary)
	}
	if m.coded() {
		return whole
	}
	for _, p := range h.livePieces(m) {
		dup := false
		for _, w := range whole {
			dup = dup || w == p.node
		}
		if !dup {
			whole = append(whole, p.node)
		}
	}
	return whole
}

// addRedundancy gives a freshly placed home-tier object its pieces: n
// coded shards when erasure is configured, DataReplicas whole copies
// otherwise. With neither configured it returns before building anything.
func (n *Node) addRedundancy(meta *ObjectMeta, obj objstore.Object, data []byte, primaryAddr string) {
	if fed := n.cfg.Federation; fed.erasureOn() {
		meta.ErasureK, meta.ErasureN = fed.ErasureK, fed.ErasureN
	} else if n.cfg.DataPlane.DataReplicas <= 0 {
		return
	}
	meta.setPieces(n.placePieces(*meta, obj, data,
		missingIndices(nil, n.wantPieces(*meta)), map[string]bool{primaryAddr: true}))
}

// placement is one bin object bound for a peer's voluntary bin.
type placement struct {
	obj  objstore.Object
	data []byte
}

// placePieces builds the given piece indices of obj — whole copies, or
// shards encoded from data (nil data = sparse parent, sparse pieces) —
// and places them on distinct peers outside exclude. Best effort: pieces
// that find no room are simply absent from the result.
func (n *Node) placePieces(m ObjectMeta, obj objstore.Object, data []byte, indices []int, exclude map[string]bool) []piece {
	if len(indices) == 0 {
		return nil
	}
	var enc [][]byte
	if m.coded() && data != nil {
		var err error
		if enc, err = erasure.Encode(data, m.ErasureK, m.ErasureN); err != nil {
			return nil
		}
	}
	items := make([]placement, len(indices))
	for i, idx := range indices {
		items[i] = placement{obj, data}
		if m.coded() {
			items[i] = placement{obj: shardObject(obj, idx, m.pieceSize())}
			if enc != nil {
				items[i].data = enc[idx]
			}
		}
	}
	var placed []piece
	for i, addr := range n.placeOnPeers(items, exclude) {
		if addr == "" {
			continue
		}
		placed = append(placed, piece{indices[i], addr})
		if m.coded() {
			n.ops.shardsPlaced.Add(1)
		}
	}
	return placed
}

// placeOnPeers pushes the equally sized items, one per peer, into the
// voluntary bins of peers outside exclude — most free space first, ties
// by address (a stable re-sort of the address-sorted Nodes() snapshot),
// so store-time placement, repair and evacuation pick targets
// identically. All wire transfers run concurrently from this node's dom0;
// an item kept on this node crosses no wire. It returns, per item, the
// address that accepted it ("" when none did). Acknowledgements ride the
// metadata update's broadcast, so none are charged here.
func (n *Node) placeOnPeers(items []placement, exclude map[string]bool) []string {
	addrs := make([]string, len(items))
	if len(items) == 0 {
		return addrs
	}
	size := items[0].obj.Size
	type candidate struct {
		node *Node
		free int64
	}
	var cands []candidate
	for _, peer := range n.home.Nodes() {
		if exclude[peer.addr] {
			continue
		}
		u, err := peer.store.Usage(objstore.Voluntary)
		if err != nil || u.Free() < size {
			continue
		}
		cands = append(cands, candidate{peer, u.Free()})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].free > cands[j].free })
	if len(cands) > len(items) {
		cands = cands[:len(items)]
	}
	var reqs []netsim.TransferReq
	for _, c := range cands {
		if c.node != n {
			reqs = append(reqs, netsim.TransferReq{Path: n.lanPathTo(c.node), Size: size})
		}
	}
	if _, _, err := n.home.net.TransferSet(reqs); err != nil {
		return addrs
	}
	for i, c := range cands {
		if err := c.node.store.Put(objstore.Voluntary, items[i].obj, items[i].data); err == nil {
			addrs[i] = c.node.addr
		}
	}
	return addrs
}

// gather brings the payload into this node's dom0 from the object's live
// copies: one whole copy if any survives (primary first, then replicas),
// else any k coded shards pulled concurrently and decoded. A holder dying
// mid-transfer charges the aborted attempt into bd.Retries, is never
// asked again, and the gather retries with the survivors; ok is false
// when too few copies remain. A non-nil sink sees a whole copy stream in
// as it arrives, and a decoded payload materialise at once (shards are
// not an in-order byte prefix).
func (n *Node) gather(meta ObjectMeta, sink *domainSink, bd *FetchBreakdown) (data []byte, source string, ok bool) {
	gone := map[string]bool{}
	for {
		// Pick what to read: one whole copy (no index in the code), else
		// k shards.
		var srcs []heldPiece
		for _, w := range n.home.wholeCopies(meta) {
			if !gone[w.addr] {
				srcs = []heldPiece{{piece{-1, w.addr}, w, meta.Name}}
				break
			}
		}
		whole := srcs != nil
		size := meta.Size
		if !whole {
			if !meta.coded() {
				return nil, "", false
			}
			for _, p := range n.home.livePieces(meta) {
				if !gone[p.addr] && len(srcs) < meta.ErasureK {
					srcs = append(srcs, p)
				}
			}
			if len(srcs) < meta.ErasureK {
				return nil, "", false
			}
			size = meta.pieceSize()
		}

		attempt := n.clock.Now()
		var reqs []netsim.TransferReq
		var remote []*Node
		for _, s := range srcs {
			if s.node == n {
				continue // a piece already in this dom0 crosses no wire
			}
			h := s.node
			req := netsim.TransferReq{Path: h.lanPathTo(n), Size: size}
			// The one place the two schemes simulate differently, kept as
			// each always did: a whole-copy pull polls for its holder's
			// death only when a pipeline sink is present (the plain pull
			// runs its modeled wire to completion, like the direct
			// fetchRemote transfer it retries); shard pulls always poll.
			if !whole || sink != nil {
				req.Cancel = n.holderGone(h)
			}
			if whole && sink != nil {
				req.Chunk, req.OnChunk = sink.chunk, sink.onChunk
			}
			reqs = append(reqs, req)
			remote = append(remote, h)
		}
		if len(remote) > 0 {
			// One request message per remote holder (overlapping
			// deliveries), then the transfers run concurrently.
			n.home.net.MessageAll(n.lanPathTo(remote[0]), len(remote))
			statuses, wall, err := n.home.net.TransferSet(reqs)
			if err != nil {
				return nil, "", false
			}
			aborted := false
			for i, st := range statuses {
				if st.Aborted {
					aborted = true
					gone[remote[i].addr] = true
				}
			}
			if aborted {
				bd.Retries += n.clock.Now().Sub(attempt)
				continue
			}
			bd.InterNode += wall
		}

		idxs := make([]int, len(srcs))
		payloads := make([][]byte, len(srcs))
		sparse, lost := false, false
		for i, s := range srcs {
			var err error
			if _, payloads[i], err = s.node.store.GetRef(s.bin); err != nil {
				bd.Retries += n.clock.Now().Sub(attempt)
				gone[s.addr], lost = true, true
				break
			}
			idxs[i], sparse = s.index, sparse || payloads[i] == nil
		}
		if lost {
			continue
		}
		if whole {
			return payloads[0], srcs[0].addr, true // a borrow, like every payload in core
		}
		if !sparse {
			var err error
			if data, err = erasure.Reconstruct(idxs, payloads, meta.ErasureK, meta.ErasureN, meta.Size); err != nil {
				return nil, "", false
			}
		}
		if sink != nil && meta.Size > 0 {
			sink.onChunk(meta.Size)
		}
		n.ops.shardReconstructs.Add(1)
		return data, fmt.Sprintf("erasure:%d-of-%d", meta.ErasureK, meta.ErasureN), true
	}
}

// payloadRepairAfterCrash runs payload repair at every surviving
// repair-enabled node after dead crashed. It is invoked from the crash
// path once the kv layer's metadata repair has completed, so repairers
// read post-repair metadata. Nodes() is address-sorted, which keeps the
// repair order — and therefore placement — deterministic.
func (h *Home) payloadRepairAfterCrash(dead string) {
	for _, n := range h.Nodes() {
		if !n.cfg.Faults.Repair {
			continue
		}
		for _, bin := range n.store.List() {
			n.repair(objectName(bin), dead)
		}
	}
}

// repair restores one object's redundancy after dead crashed, if this
// node is the object's repair actor: the lowest-addressed live node that
// already holds the full payload, else the lowest-addressed live piece
// holder — which gathers k pieces, rebuilds the payload into its
// voluntary bin and promotes itself to primary. Every holder runs the
// same election over the same metadata, so exactly one acts. The actor
// takes over as primary if the primary's copy is gone, re-places the
// missing pieces, and rewrites the metadata.
func (n *Node) repair(name, dead string) {
	meta, _, err := n.getMeta(name)
	if err != nil || meta.InCloud() {
		return
	}
	affected := meta.Location == dead
	for _, p := range meta.pieces() {
		affected = affected || p.addr == dead
	}
	if !affected {
		return
	}

	whole := n.home.wholeCopies(meta)
	live := n.home.livePieces(meta)
	electorate := whole
	if len(whole) == 0 {
		for _, p := range live {
			electorate = append(electorate, p.node)
		}
	}
	var actor *Node
	for _, c := range electorate {
		if actor == nil || c.addr < actor.addr {
			actor = c
		}
	}
	if actor != n {
		return
	}

	var obj objstore.Object
	var data []byte
	if len(whole) > 0 {
		if obj, data, err = n.store.GetRef(name); err != nil {
			return
		}
	} else {
		var ok bool
		if data, _, ok = n.gather(meta, nil, &FetchBreakdown{}); !ok {
			return // fewer than k pieces left; the payload is lost
		}
		obj = objstore.Object{Name: meta.Name, Type: meta.Type, Size: meta.Size, Tags: meta.Tags, Owner: meta.Owner}
		if err := n.store.Put(objstore.Voluntary, obj, data); err != nil {
			return // no room to host the rebuilt primary; pieces stay as-is
		}
		// The primary never doubles as a piece holder: drop our own piece
		// and let its index be re-placed below.
		for _, p := range live {
			if p.node == n {
				if err := n.store.Delete(p.bin); err != nil {
					return
				}
			}
		}
	}
	if len(whole) == 0 || whole[0].addr != meta.Location {
		// The primary's copy is gone: ours, in the voluntary bin like every
		// piece and every rebuilt payload, takes over.
		meta.Location, meta.Bin = n.addr, objstore.Voluntary.String()
	}

	exclude := map[string]bool{meta.Location: true}
	var kept []piece
	for _, p := range live {
		if p.addr == meta.Location {
			continue
		}
		if !meta.coded() {
			p.index = len(kept) // whole copies are interchangeable: renumber
		}
		kept = append(kept, p.piece)
		exclude[p.addr] = true
	}
	placed := n.placePieces(meta, obj, data, missingIndices(kept, n.wantPieces(meta)), exclude)
	meta.setPieces(append(kept, placed...))
	if err := n.putMeta(meta); err != nil {
		return
	}
	n.ops.objectsRepaired.Add(1)
	if meta.coded() {
		n.ops.shardsRestored.Add(int64(len(placed)))
	} else {
		n.ops.replicasRestored.Add(int64(len(placed)))
	}
}

// evacuate hands every locally stored bin object to a peer on graceful
// departure, updating metadata so fetches keep working after this node
// leaves. Objects that fit nowhere are left behind (best effort), exactly
// as a full home cloud would; repair, or the code itself, absorbs a lost
// piece.
func (n *Node) evacuate() {
	for _, name := range n.store.List() {
		if !n.evacuateLocal(name) {
			continue
		}
		// Delete only fails when the object is already gone, which is the
		// goal state here; anything else keeps the local copy.
		if err := n.store.Delete(name); err != nil && !errors.Is(err, objstore.ErrNotFound) {
			continue
		}
	}
}

// evacuateLocal re-homes one local bin object — the primary copy or a
// piece — and rewrites only the metadata reference that named it. The
// new holder is a peer that holds nothing of the object yet (one copy per
// node), best voluntary fit first. A departing primary that fits on no
// such peer hands its role to a live whole copy, and only then falls back
// to the remote cloud; a piece that fits nowhere stays behind. Reports
// whether the local copy may be deleted.
func (n *Node) evacuateLocal(name string) bool {
	meta, _, err := n.getMeta(objectName(name))
	if err != nil {
		return false
	}
	obj, data, err := n.store.GetRef(name)
	if err != nil {
		return false
	}
	pieces := meta.pieces()
	primary := name == meta.Name && meta.Location == n.addr
	mine := -1 // position in pieces of the reference to this copy
	exclude := map[string]bool{meta.Location: true, n.addr: true}
	for i, p := range pieces {
		exclude[p.addr] = true
		if p.addr == n.addr && meta.pieceName(p.index) == name {
			mine = i
		}
	}
	if !primary && mine < 0 {
		return false // a stale copy no metadata names; nothing to re-home
	}

	if dest := n.placeOnPeers([]placement{{obj, data}}, exclude)[0]; dest != "" {
		if primary {
			meta.Location, meta.Bin = dest, objstore.Voluntary.String()
		} else {
			pieces[mine].addr = dest
			meta.setPieces(pieces)
		}
	} else if !primary {
		return false
	} else if whole := n.home.wholeCopies(meta); len(whole) > 0 {
		meta.Location, meta.Bin = whole[0].addr, objstore.Voluntary.String()
		meta.setPieces(slices.DeleteFunc(pieces, func(p piece) bool { return p.addr == whole[0].addr }))
	} else {
		cloud := n.home.Cloud()
		if cloud == nil {
			return false
		}
		url, _, err := cloud.StoreObject(n.nic, obj, data)
		if err != nil {
			return false
		}
		meta.Location, meta.Bin = url, ""
	}
	return n.putMeta(meta) == nil
}
