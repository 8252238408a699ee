package core

import (
	"errors"
	"slices"
	"sort"

	"cloud4home/internal/cloudsim"
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
//     under the object's own name (Config.ErasureN of them at ErasureK 1);
//   - ObjectMeta.Shards are pieces of an (ErasureK, ErasureN) Reed–Solomon
//     code, 1 < k < n, stored under shardName.
//
// Placement, repair and evacuation below, and the fetch executor's
// pieces rung (pull.go), are written once over that view; the metadata
// record's wire format is untouched.

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
// shards, this home's configured n for whole copies (the record does not
// carry a replica target).
func (n *Node) wantPieces(m ObjectMeta) int {
	if m.coded() {
		return m.ErasureN
	}
	if cfg := n.home.cfg; cfg.ErasureK == 1 {
		return cfg.ErasureN
	}
	return 0
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
		if !slices.Contains(whole, p.node) {
			whole = append(whole, p.node)
		}
	}
	return whole
}

// holderFor picks the node of home h that serves meta's whole payload to
// n: the primary while it is alive and holds the payload, else under
// Config.Fallback a stand-in counted as a fetch retry — cloud (if
// non-nil) when a charged probe finds a copy there, else the first
// surviving whole copy. holder is nil when nobody can serve, or when the
// cloud does (inCloud).
func (n *Node) holderFor(h *Home, meta ObjectMeta, cloud *cloudsim.Cloud) (holder *Node, inCloud bool) {
	primary, ok := h.Node(meta.Location)
	if !n.home.cfg.Fallback || ok && primary.store.Has(meta.Name) {
		return primary, false
	}
	if cloud != nil && n.cloudProbe(cloud, meta.Name) {
		inCloud = true
	} else if whole := h.wholeCopies(meta); len(whole) > 0 {
		holder = whole[0]
	}
	if holder != nil || inCloud {
		n.ops.FetchRetries++
	}
	return holder, inCloud
}

// addRedundancy gives a freshly placed home-tier object the configured
// code's n pieces: whole copies at k = 1, which the record lists as
// Replicas with no code, else coded shards. With no code configured it
// returns before building anything.
func (n *Node) addRedundancy(meta *ObjectMeta, obj objstore.Object, data []byte, primaryAddr string) {
	cfg := n.home.cfg
	if cfg.ErasureN == 0 {
		return
	}
	if cfg.ErasureK > 1 {
		meta.ErasureK, meta.ErasureN = cfg.ErasureK, cfg.ErasureN
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
			n.ops.ShardsPlaced++
		}
	}
	return placed
}

// placeOnPeers pushes the equally sized items, one per peer, into the
// voluntary bins of peers outside exclude — most free space first, ties
// by address (a stable re-sort of the address-sorted membership),
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
	for _, peer := range n.home.members() {
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

// payloadRepairAfterCrash runs payload repair at every surviving
// repair-enabled node after dead crashed. It is invoked from the crash
// path once the kv layer's metadata repair has completed, so repairers
// read post-repair metadata. Membership is address-sorted, which keeps the
// repair order — and therefore placement — deterministic.
func (h *Home) payloadRepairAfterCrash(dead string) {
	for _, n := range h.members() {
		if !n.home.cfg.Repair {
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
		if data, _, err = n.pull(n, meta, rungPieces, nil, &FetchBreakdown{}); err != nil {
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
	n.ops.ObjectsRepaired++
	if meta.coded() {
		n.ops.ShardsRestored += int64(len(placed))
	} else {
		n.ops.ReplicasRestored += int64(len(placed))
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
