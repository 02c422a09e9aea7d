package pm2

import (
	"fmt"

	"repro/internal/bip"
	"repro/internal/bitmap"
	"repro/internal/layout"
	"repro/internal/madeleine"
)

// The delta gather (Config.Gather == GatherDelta, and the tree gather's
// post-failover fallback): incremental, version-stamped bitmap exchange,
// and the only flat concurrent gather. One round of Calls overlaps the
// replies' wire time, so the round costs roughly the slowest peer plus
// the initiator's merge work instead of the sum of all round trips. A
// plain concurrent round would still merge a full 7 KB map per peer per
// round; here every node version-stamps its slot bitmap and journals the
// 64-bit words each ownership mutation dirtied (bitmap.Journal, fed from
// NodeSlots.SetOnChange); a negotiation initiator caches each peer's
// last-seen map plus version and asks only for the changes since then
// over chBitmapDelta. A peer replies:
//
//   - "unchanged" — the cached view is current; nothing shipped, nothing
//     merged;
//   - a word-indexed delta — the dirty words' absolute values, applied
//     onto the cached view and patched into the cached global OR in
//     place, charging merge cost on the delta bytes only;
//   - a full map — first contact, or the bounded journal truncated. On
//     first contact the map becomes the view and is ORed into the global
//     view; after a truncation it replaces the cached view (decoded over
//     it in place when this initiator holds it alone) and only the words
//     it changed are patched into the global OR. Either way merge cost
//     is charged as a full-map gather pays it every round.
//
// A cached view is exactly its peer's map at one journal version, so
// initiators whose views of a rank stand at the same version share one
// copy: a view points at a reference-counted snapshot (viewSnap) of rank
// p's map at version v. The cluster's table (viewSnaps) remembers the
// newest snapshot of each rank, weakly: it holds no reference, so a
// snapshot lives only while some view points at it, and its map then
// goes to a small bounded free list. A reply that reaches version v
// adopts the table's snapshot when it stands at v, patches the view in
// place when this initiator is its only holder, and otherwise patches a
// private copy and publishes it. Adopting checks the reply against the
// snapshot first: one (rank, version) pair names one map, so a shipped
// word or full map that disagrees with it is a protocol violation and
// panics instead of silently taking either copy.
//
// Because every ownership mutation — local allocation, purchase,
// give-back, defragmentation install — bumps the owner's version, a
// cached view can never silently claim a slot the owner no longer has
// free: the next request's version mismatch ships the correction. The
// delta gather deliberately contacts every peer each round instead of
// skipping any: the "unchanged" reply is the pruning (a skipped peer's
// view would go stale and could plan doomed purchases forever), and it
// keeps every cached view coherent.

// deltaJournalWords bounds the per-node dirty-word journal. 64 words
// cover 4096 slots' worth of churn between two contacts by the same
// initiator; beyond that the journal truncates and the next request is
// answered with a full map — a pure bandwidth fallback.
const deltaJournalWords = 64

// deltaWordWireBytes is the wire footprint of one delta word: a u32
// word index plus the u64 word value.
const deltaWordWireBytes = 12

// chBitmapDelta reply statuses.
const (
	deltaReplyUnchanged uint32 = 0 // cached view is current
	deltaReplyWords     uint32 = 1 // word-indexed delta follows
	deltaReplyFull      uint32 = 2 // full map follows
)

// viewSnap is rank's slot bitmap at one journal version, shared by
// every initiator whose cached view of rank stands at that version. refs
// counts those views; only a sole holder patches the map in place.
type viewSnap struct {
	bm       *bitmap.Bitmap
	rank     int
	version  uint64
	refs     int
	released bool
}

// viewSnaps is a cluster's table of delta-gather snapshots: latest[p]
// is the snapshot of rank p published last, or nil. The table holds no
// reference, so a snapshot whose last view lets go leaves it, and goes
// to the bounded free list that later copies and decodes take from. In
// a poison build a released snapshot is overwritten and retired instead,
// so a view or planner input that outlives it reads garbage. Like
// vmem.Pages, it needs no locking: the whole cluster runs on one
// kernel goroutine.
type viewSnaps struct {
	latest []*viewSnap
	free   []*viewSnap
	// patch is applyDeltaWords' scratch: the reply's words with the
	// values they replace.
	patch []deltaWordPatch
}

// viewSnapBound is the most released snapshots a cluster keeps for
// reuse, 7 KB of map each.
const viewSnapBound = 16

// poisonWord fills every snapshot map a poison build releases.
const poisonWord = 0xA5A5A5A5A5A5A5A5

func newViewSnaps(nodes int) *viewSnaps {
	return &viewSnaps{latest: make([]*viewSnap, nodes), free: make([]*viewSnap, 0, viewSnapBound)}
}

// at returns the table's snapshot of rank p when it stands at version
// ver, else nil.
func (t *viewSnaps) at(p int, ver uint64) *viewSnap {
	if s := t.latest[p]; s != nil && s.version == ver {
		return s
	}
	return nil
}

// take returns an unreferenced, unpublished snapshot of rank p at
// version ver whose map the caller overwrites.
func (t *viewSnaps) take(p int, ver uint64) *viewSnap {
	var s *viewSnap
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		s = &viewSnap{bm: bitmap.New(layout.SlotCount)}
	}
	s.rank, s.version, s.refs, s.released = p, ver, 0, false
	return s
}

// release drops one view's reference; the last one retires s.
func (t *viewSnaps) release(s *viewSnap) {
	if s.refs--; s.refs == 0 {
		t.put(s)
	}
}

// put retires an unreferenced snapshot: it leaves the table and its map
// is kept for reuse, or poisoned.
func (t *viewSnaps) put(s *viewSnap) {
	if t.latest[s.rank] == s {
		t.latest[s.rank] = nil
	}
	s.released = true
	if bip.Poison {
		for w := 0; w < s.bm.Words(); w++ {
			s.bm.SetWord(w, poisonWord)
		}
		return
	}
	if len(t.free) < cap(t.free) {
		t.free = append(t.free, s)
	}
}

// deltaWordPatch is one shipped delta word with the value the view held
// before it.
type deltaWordPatch struct {
	w         int
	prev, val uint64
}

// deltaPeerCall is the initiator's per-peer half of a delta round: what
// the request asks for, fixed when the round starts (a retried attempt
// re-sends the same request, and its reply is judged against it), and
// the call record with its callbacks, bound once so a round allocates
// neither closures nor records.
type deltaPeerCall struct {
	known   bool
	version uint64
	rpc     call
}

// gatherDelta runs one incremental gather round: every peer is asked
// for its bitmap changes since the cached version, the replies patch the
// cached views and global OR, and the purchase is planned on the result.
// The round's outstanding-peer count lives on the negotiation record,
// which the bound reply callbacks reach as the node's running one.
func (g *negotiation) gatherDelta() {
	n := g.n
	if n.deltaPeers == nil {
		n.deltaPeers = make([]*viewSnap, n.c.Nodes())
		n.deltaOr = bitmap.New(layout.SlotCount)
	}
	if n.deltaCalls == nil {
		n.bindDeltaCalls()
	}
	if g.outstanding != 0 {
		panic(fmt.Sprintf("pm2: node %d started a delta round with one in flight", n.id))
	}
	for i := 0; i < n.c.Nodes(); i++ {
		if i != n.id && n.c.nodeAlive(i) {
			g.outstanding++
		}
	}
	if g.outstanding == 0 {
		g.planOnViews()
		return
	}
	for p := 0; p < n.c.Nodes(); p++ {
		if p == n.id || !n.c.nodeAlive(p) {
			continue
		}
		pc := &n.deltaCalls[p]
		pc.known, pc.version = false, 0
		if v := n.deltaPeers[p]; v != nil {
			pc.known, pc.version = true, v.version
		}
		// A peer whose retries run out just retires: the round plans on
		// its cached view as-is. If the peer's bitmap moved meanwhile,
		// any purchase planned on the stale view is declined and
		// retried as usual.
		pc.rpc.start()
	}
}

// bindDeltaCalls binds the per-peer call records of the delta round
// once per node. A peer that answered or ran out of retries retires from
// the running negotiation's round; the last one plans the purchase.
func (n *Node) bindDeltaCalls() {
	n.deltaCalls = make([]deltaPeerCall, n.c.Nodes())
	done := func() {
		g := n.neg
		g.outstanding--
		if g.outstanding == 0 {
			g.planOnViews()
		}
	}
	for p := range n.deltaCalls {
		pc := &n.deltaCalls[p]
		pc.rpc = call{n: n, kind: gatherCall, dst: p, ch: chBitmapDelta, reuse: true, timeout: done, build: func(b *madeleine.Buffer) {
			flag := uint32(0)
			if pc.known {
				flag = 1
			}
			b.PackU32(flag).PackU64(pc.version)
		}, reply: func(reply *madeleine.Buffer) {
			n.applyDeltaReply(p, pc.known, reply)
			done()
		}}
	}
}

// applyDeltaReply folds one peer's reply into the cached view and the
// cached global OR, charging merge cost on the bytes actually shipped.
// known is what the request asked: whether it named a cached version.
// A suspicion or rejoin can drop that view while the request is in
// flight; its reply then answers a version this node no longer holds,
// so it is discarded and the round plans without that peer, as after a
// miss — the next round re-contacts it from scratch.
func (n *Node) applyDeltaReply(p int, known bool, reply *madeleine.Buffer) {
	view := n.deltaPeers[p]
	if known && view == nil {
		return
	}
	status := reply.U32()
	ver := reply.U64()
	switch status {
	case deltaReplyUnchanged:
		if !known {
			panic(fmt.Sprintf("pm2: node %d claims unchanged on first contact", p))
		}
		// The view may be a shared snapshot, so nothing re-versions
		// it: the journal answers "unchanged" only at the asked version.
		if ver != view.version {
			panic(fmt.Sprintf("pm2: node %d claims unchanged at version %d, cached at %d", p, ver, view.version))
		}
	case deltaReplyWords:
		if !known {
			panic(fmt.Sprintf("pm2: node %d sent a delta on first contact", p))
		}
		n.applyDeltaWords(p, view, ver, reply)
	case deltaReplyFull:
		n.applyFullMap(p, view, ver, reply.BytesSection())
		n.mergeCharge(layout.BitmapBytes)
	default:
		panic(fmt.Sprintf("pm2: bad delta-gather status %d from node %d", status, p))
	}
	if reply.Err() != nil {
		panic("pm2: corrupt delta-gather reply")
	}
	if n.deltaReplyHook != nil {
		n.deltaReplyHook(p, status)
	}
}

// applyDeltaWords moves the view of p to version ver by the reply's
// delta words: it adopts the table's snapshot at ver, patches the view
// in place when this node holds it alone, or patches a published copy.
// The cached global OR is then patched from each word's previous and
// new value.
func (n *Node) applyDeltaWords(p int, view *viewSnap, ver uint64, reply *madeleine.Buffer) {
	snaps := n.c.snaps
	count := int(reply.U32())
	patch := snaps.patch[:0]
	for i := 0; i < count && reply.Err() == nil; i++ {
		w := int(reply.U32())
		v := reply.U64()
		if w < 0 || w >= view.bm.Words() {
			panic(fmt.Sprintf("pm2: delta word %d from node %d out of range", w, p))
		}
		patch = append(patch, deltaWordPatch{w: w, prev: view.bm.Word(w), val: v})
	}
	snaps.patch = patch
	switch shared := snaps.at(p, ver); {
	case shared != nil:
		for _, d := range patch {
			if shared.bm.Word(d.w) != d.val {
				panic(fmt.Sprintf("pm2: node %d's map at version %d disagrees with its shared snapshot in word %d", p, ver, d.w))
			}
		}
		if bip.Poison {
			n.checkSharedHit(view, patch, shared)
		}
		n.setView(p, shared)
	case view.refs == 1:
		patchMap(view.bm, patch)
		view.version = ver
		snaps.latest[p] = view
	default:
		s := snaps.take(p, ver)
		s.bm.CopyFrom(view.bm)
		patchMap(s.bm, patch)
		snaps.latest[p] = s
		n.setView(p, s)
	}
	for _, d := range patch {
		n.patchOrWord(d.w, d.prev, d.val)
	}
	n.mergeCharge(count * deltaWordWireBytes)
}

// checkSharedHit is a poison build's whole-map check of an adopted
// snapshot: it builds the map the delta makes of the private view and
// panics unless the shared one equals it.
func (n *Node) checkSharedHit(view *viewSnap, patch []deltaWordPatch, shared *viewSnap) {
	s := n.c.snaps.take(shared.rank, shared.version)
	s.bm.CopyFrom(view.bm)
	patchMap(s.bm, patch)
	if !s.bm.Equal(shared.bm) {
		panic(fmt.Sprintf("pm2: node %d's map at version %d disagrees with its shared snapshot", shared.rank, shared.version))
	}
	n.c.snaps.put(s)
}

// patchMap stores a delta's words into bm.
func patchMap(bm *bitmap.Bitmap, patch []deltaWordPatch) {
	for _, d := range patch {
		bm.SetWord(d.w, d.val)
	}
}

// applyFullMap moves the view of p to the full map data at version ver:
// first contact, or the journal truncated past the cached version. A
// view this node holds alone is decoded over in place. Otherwise the view
// adopts the table's snapshot at ver, which the shipped bytes must
// equal, or, when there is none, a free snapshot the map is decoded into.
func (n *Node) applyFullMap(p int, view *viewSnap, ver uint64, data []byte) {
	snaps := n.c.snaps
	shared := snaps.at(p, ver)
	if view != nil && view.refs == 1 && shared == nil {
		// Decode over the sole-held view in place and patch only the
		// words the map changed into the global OR.
		if err := view.bm.Load(data, n.patchGlobalWord); err != nil {
			panic(fmt.Sprintf("pm2: bad bitmap from node %d: %v", p, err))
		}
		view.version = ver
		snaps.latest[p] = view
		return
	}
	s := shared
	if s != nil {
		// Another initiator published this version: the shipped map
		// must equal it, and the view adopts it without a copy.
		eq, err := s.bm.EqualBytes(data)
		if err != nil {
			panic(fmt.Sprintf("pm2: bad bitmap from node %d: %v", p, err))
		}
		if !eq {
			panic(fmt.Sprintf("pm2: node %d's map at version %d disagrees with its shared snapshot", p, ver))
		}
	} else {
		s = snaps.take(p, ver)
		if err := s.bm.Load(data, nil); err != nil {
			panic(fmt.Sprintf("pm2: bad bitmap from node %d: %v", p, err))
		}
		snaps.latest[p] = s
	}
	if view == nil {
		n.setView(p, s)
		n.deltaOr.Or(s.bm)
		return
	}
	n.replaceView(p, s)
}

// setView points this node's view of p at s, or drops it when s is
// nil, and releases the snapshot the view pointed at. Every change of a
// view's snapshot goes through it, so a snapshot's refs always count
// the views pointing at it.
func (n *Node) setView(p int, s *viewSnap) {
	old := n.deltaPeers[p]
	if s != nil {
		s.refs++
	}
	n.deltaPeers[p] = s
	if old != nil {
		n.c.snaps.release(old)
	}
}

// replaceView points the view of p at s, or drops it, and patches into
// the cached global OR every word in which the old view and s differ.
// The old snapshot is held across the patch: setView may release it,
// and a poison build overwrites a released map.
func (n *Node) replaceView(p int, s *viewSnap) {
	old := n.deltaPeers[p]
	old.refs++
	n.setView(p, s)
	for w := 0; w < old.bm.Words(); w++ {
		var v uint64
		if s != nil {
			v = s.bm.Word(w)
		}
		if old.bm.Word(w) != v {
			n.patchGlobalWord(w)
		}
	}
	n.c.snaps.release(old)
}

// dropViews releases every cached view and empties the cached global
// OR, so the next round re-contacts every peer from scratch. A reply
// still in flight then finds no view: one that answers a cached version
// is discarded, and a first contact starts a new view.
func (n *Node) dropViews() {
	for p := range n.deltaPeers {
		n.setView(p, nil)
	}
	if n.deltaOr != nil {
		for w := 0; w < n.deltaOr.Words(); w++ {
			n.deltaOr.SetWord(w, 0)
		}
	}
}

// patchOrWord patches word w of the cached global OR after one view's
// word went from prev to v, at the cost of what changed: an unchanged
// word costs nothing, a word that only gained bits is ORed in directly,
// and only a word that lost bits is recomputed across every view —
// another, stale view may still hold a cleared bit, so clearing it
// outright could drop a slot the global view must still show.
func (n *Node) patchOrWord(w int, prev, v uint64) {
	switch {
	case v == prev:
	case prev&^v == 0:
		n.deltaOr.SetWord(w, n.deltaOr.Word(w)|v)
	default:
		n.patchGlobalWord(w)
	}
}

// patchGlobalWord recomputes one word of the cached global OR from the
// cached peer views — the in-place patch that replaces a full re-merge.
func (n *Node) patchGlobalWord(w int) {
	var or uint64
	for q, v := range n.deltaPeers {
		if q != n.id && v != nil {
			or |= v.bm.Word(w)
		}
	}
	n.deltaOr.SetWord(w, or)
}

// forgetDeltaPeer drops the cached view of peer p — it was suspected,
// rejoined or declared dead — and patches out of the global OR exactly
// the words where that view had set bits, so none of its stale bits
// linger.
func (n *Node) forgetDeltaPeer(p int) {
	if n.deltaPeers == nil || n.deltaPeers[p] == nil {
		return
	}
	n.replaceView(p, nil)
}

// planOnViews plans and buys on the cached views, then clears the
// planner's map slice, so the scratch pins no snapshot a later reply
// releases.
func (g *negotiation) planOnViews() {
	n := g.n
	g.planAndBuy(n.deltaView())
	clear(n.deltaMaps)
}

// deltaView returns the delta round's planning inputs: the cached global
// view with the own bitmap merged fresh (it is local and always
// current), and the per-node maps. The purchase then runs through the
// same path as the sequential gather's, so declines and give-backs retry
// identically (and the retry's re-gather ships only the deltas the
// failed round caused). The view lives in node scratch: the planner only
// reads its inputs and returns before anything mutates them, and the
// scratch belongs to this node alone. The peer maps may be shared
// snapshots, but only a snapshot's sole holder patches it in place, so
// no other node's reply changes a map this node plans on.
func (n *Node) deltaView() (*bitmap.Bitmap, []*bitmap.Bitmap) {
	own := n.slots.Bitmap()
	if n.deltaPlan == nil {
		n.deltaPlan = bitmap.New(layout.SlotCount)
		n.deltaMaps = make([]*bitmap.Bitmap, n.c.Nodes())
	}
	global := n.deltaPlan
	global.CopyFrom(n.deltaOr)
	global.Or(own)
	maps := n.deltaMaps
	for p, v := range n.deltaPeers {
		maps[p] = nil
		if v != nil {
			maps[p] = v.bm
		}
	}
	maps[n.id] = own
	return global, maps
}

// onBitmapDeltaCall serves the incremental gather: answer with nothing,
// the dirty words, or the full map, depending on what the journal still
// knows about the caller's cached version.
func (n *Node) onBitmapDeltaCall(src int, req *madeleine.Call) {
	known := req.Msg.U32()
	since := req.Msg.U64()
	if req.Msg.Err() != nil || known > 1 {
		panic("pm2: corrupt delta-gather request")
	}
	if n.journal == nil {
		panic("pm2: delta gather served by a node without a journal")
	}
	ver := n.journal.Version()
	if known == 1 {
		// The reply is packed synchronously inside req.Reply, so the
		// word list can live in node scratch.
		words, ok := n.journal.AppendWordsSince(n.deltaWords[:0], since)
		n.deltaWords = words
		if ok {
			if len(words) == 0 {
				req.Reply(func(b *madeleine.Buffer) {
					b.PackU32(deltaReplyUnchanged).PackU64(ver)
				})
				return
			}
			bm := n.slots.Bitmap()
			n.actor.Charge(n.c.cfg.Model.Memcpy(len(words) * deltaWordWireBytes))
			req.Reply(func(b *madeleine.Buffer) {
				b.PackU32(deltaReplyWords).PackU64(ver)
				b.PackU32(uint32(len(words)))
				for _, w := range words {
					b.PackU32(uint32(w)).PackU64(bm.Word(w))
				}
			})
			return
		}
	}
	// First contact, or the journal truncated past the caller's version:
	// fall back to the full map, exactly as a sequential gather ships it.
	n.actor.Charge(n.c.cfg.Model.Memcpy(layout.BitmapBytes))
	req.Reply(func(b *madeleine.Buffer) {
		b.PackU32(deltaReplyFull).PackU64(ver)
		b.PackBytesAppend(n.slots.Bitmap().AppendBytes)
	})
}
