package pm2

import (
	"fmt"

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
//     view; after a truncation it is decoded over the cached view in
//     place and only the words it changed are patched into the global
//     OR. Either way merge cost is charged as a full-map gather pays it
//     every round.
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

// deltaPeerView is the initiator's cached knowledge of one peer: the
// last-seen bitmap, nil before first contact, and the version it
// corresponds to.
type deltaPeerView struct {
	version uint64
	bm      *bitmap.Bitmap
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
		n.deltaPeers = make([]deltaPeerView, n.c.Nodes())
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
		g.planAndBuy(n.deltaView())
		return
	}
	for p := 0; p < n.c.Nodes(); p++ {
		if p == n.id || !n.c.nodeAlive(p) {
			continue
		}
		pc := &n.deltaCalls[p]
		pc.known, pc.version = n.deltaPeers[p].bm != nil, n.deltaPeers[p].version
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
			g.planAndBuy(n.deltaView())
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
	view := &n.deltaPeers[p]
	if known && view.bm == nil {
		return
	}
	status := reply.U32()
	ver := reply.U64()
	switch status {
	case deltaReplyUnchanged:
		if !known {
			panic(fmt.Sprintf("pm2: node %d claims unchanged on first contact", p))
		}
		// The cached view is current; nothing to merge.
	case deltaReplyWords:
		if !known {
			panic(fmt.Sprintf("pm2: node %d sent a delta on first contact", p))
		}
		count := int(reply.U32())
		for i := 0; i < count; i++ {
			w := int(reply.U32())
			v := reply.U64()
			if w < 0 || w >= view.bm.Words() {
				panic(fmt.Sprintf("pm2: delta word %d from node %d out of range", w, p))
			}
			n.patchViewWord(view.bm, w, v)
		}
		n.mergeCharge(count * deltaWordWireBytes)
	case deltaReplyFull:
		if view.bm == nil {
			view.bm = n.unpackBitmap(p, reply)
			n.deltaOr.Or(view.bm)
		} else {
			// Journal truncation: decode over the cached view in place
			// and patch only the words the map changed into the global OR.
			if err := view.bm.Load(reply.BytesSection(), n.patchGlobalWord); err != nil {
				panic(fmt.Sprintf("pm2: bad bitmap from node %d: %v", p, err))
			}
		}
		n.mergeCharge(layout.BitmapBytes)
	default:
		panic(fmt.Sprintf("pm2: bad delta-gather status %d from node %d", status, p))
	}
	if reply.Err() != nil {
		panic("pm2: corrupt delta-gather reply")
	}
	view.version = ver
	if n.deltaReplyHook != nil {
		n.deltaReplyHook(p, status)
	}
}

// patchViewWord stores a delta word into a cached view and patches the
// cached global OR at the cost of what changed: an unchanged word costs
// nothing, a word that only gained bits is ORed in directly, and only a
// word that lost bits is recomputed across every view — another, stale
// view may still hold a cleared bit, so clearing it outright could drop
// a slot the global view must still show.
func (n *Node) patchViewWord(bm *bitmap.Bitmap, w int, v uint64) {
	prev := bm.Word(w)
	bm.SetWord(w, v)
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
	for q := range n.deltaPeers {
		if q == n.id {
			continue
		}
		if bm := n.deltaPeers[q].bm; bm != nil {
			or |= bm.Word(w)
		}
	}
	n.deltaOr.SetWord(w, or)
}

// forgetDeltaPeer drops the cached view of peer p — it was suspected,
// rejoined or declared dead — and patches out of the global OR exactly
// the words where that view had set bits, so none of its stale bits
// linger.
func (n *Node) forgetDeltaPeer(p int) {
	if n.deltaPeers == nil || n.deltaPeers[p].bm == nil {
		return
	}
	old := n.deltaPeers[p].bm
	n.deltaPeers[p] = deltaPeerView{}
	for w := 0; w < old.Words(); w++ {
		if old.Word(w) != 0 {
			n.patchGlobalWord(w)
		}
	}
}

// deltaView returns the delta round's planning inputs: the cached global
// view with the own bitmap merged fresh (it is local and always
// current), and the per-node maps. The purchase then runs through the
// same path as the sequential gather's, so declines and give-backs retry
// identically (and the retry's re-gather ships only the deltas the
// failed round caused). The view lives in node scratch: the planner only
// reads its inputs and returns before anything mutates them, and the
// scratch belongs to this node alone.
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
	for p := range n.deltaPeers {
		maps[p] = n.deltaPeers[p].bm
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
