package pm2

import (
	"fmt"
	"slices"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/simtime"
)

// The negotiation protocol (paper §4.4, step 2). When a node cannot satisfy
// a multi-slot allocation from its own bitmap, it:
//
//	(a) enters a system-wide critical section (lock manager on node 0);
//	(b) gathers the bitmaps of all other nodes;
//	(c) computes a global OR and first-fit searches it for the run;
//	(d) buys the non-local slots from their owners;
//	(e) the owners' bitmaps are updated by the purchase; the requester
//	    marks the bought slots in its own bitmap;
//	(f) exits the critical section.
//
// The per-node gather of the 7 KB bitmap dominates the cost, which is how
// the paper's "+165 µs per extra node" arises: the paper performs step (b)
// one peer at a time. Config.Gather makes the gather topology pluggable —
// sequential (paper-faithful), a binomial combining tree (interior nodes
// OR their children's maps before forwarding one merged map up), or the
// incremental delta gather (one round of concurrent Calls answered with
// only the changed words) — see gather.go and delta.go.
//
// Because other nodes keep allocating slots locally while the section is
// held (the paper permits block allocation; we also allow slot allocation
// and handle the race), a purchase can be declined — the initiator then
// gives secured shares back, waits for every give-back to be acknowledged,
// and re-gathers with fresh bitmaps.

const maxNegotiationRounds = 8

// Purchase-channel operations (first word of every chBuy message).
const (
	opPurchase uint32 = 0 // buy explicit slot runs from their owner
	opGiveBack uint32 = 1 // return secured runs after a failed round
	opRangeBuy uint32 = 2 // buy the owner's intersection with a run
)

// negotiation is one run of the protocol, kept as data: what it buys,
// how far it got, and everything it holds until it finishes. Every
// protocol step takes the record, so the state of a node's negotiation
// can be inspected at any instant instead of being captured in closures.
type negotiation struct {
	n     *Node
	k     int          // slots wanted
	round int          // attempt within the current round budget
	start simtime.Time // when negotiate was called
	done  func(bool)
	// whole marks a negotiation that holds the whole slot space until it
	// finishes: the section under the global arbiter, every shard once
	// a sharded negotiation escalated. held lists the lock keys it holds.
	whole bool
	held  []int
	// plan is the purchase in flight, and sellers its shares grouped by
	// seller (see executePurchase).
	plan    core.Purchase
	sellers []core.SellerShare
	// giveBacks counts give-back Calls whose reply has not yet arrived;
	// a new round must never start before it drops to zero.
	giveBacks int
	// outstanding counts the peers of the in-flight delta round that
	// have neither answered nor run out of retries (see gatherDelta).
	outstanding int
}

// negotiate acquires k contiguous slots into this node's bitmap and calls
// done(true), or done(false) if the cluster is out of contiguous space.
func (n *Node) negotiate(k int, done func(bool)) {
	g := &negotiation{n: n, k: k, start: n.actor.Now(), done: done}
	if n.c.cfg.Arbiter == ArbiterGlobal {
		// Every negotiation holds the system-wide section from its first
		// round. With a timeout configured, an unreachable lock manager
		// fails the negotiation instead of hanging this thread forever.
		n.lockEach(n.c.whole, &g.held, func() {
			g.whole = true
			g.begin()
		}, func() {
			g.record(false)
			done(false)
		})
		return
	}
	// Sharded arbiter: the node's own negotiations run one at a time, in
	// FIFO order; shards are locked per round, after planning.
	if n.neg != nil {
		n.negWaiting = append(n.negWaiting, g)
		return
	}
	g.begin()
}

// begin makes g the node's running negotiation and starts its first
// round. One negotiation per node at a time is the invariant the retry
// path relies on: give-backs of one round can never interleave with
// another round's gather.
func (g *negotiation) begin() {
	n := g.n
	if n.neg != nil {
		panic(fmt.Sprintf("pm2: node %d started a negotiation with one running", n.id))
	}
	n.neg = g
	g.run()
}

// finish ends the running negotiation: it releases its keys, records the
// outcome (before the node's next queued negotiation starts, whose
// charges are not this one's latency), and hands ok to the caller.
func (g *negotiation) finish(ok bool) {
	n := g.n
	n.neg = nil
	n.unlockAll(&g.held)
	g.record(ok)
	if len(n.negWaiting) > 0 {
		next := n.negWaiting[0]
		n.negWaiting = n.negWaiting[:copy(n.negWaiting, n.negWaiting[1:])]
		next.begin()
	}
	g.done(ok)
}

// record counts the outcome in the negotiation statistics.
func (g *negotiation) record(ok bool) {
	n := g.n
	n.c.stats.Negotiations++
	if ok {
		// Only successful negotiations enter the latency series the
		// percentiles summarize; a failure (round exhaustion, cluster
		// out of contiguous space) is counted on its own instead of
		// skewing the p50/p95/p99 columns.
		n.c.stats.NegotiationLatencies = append(n.c.stats.NegotiationLatencies, n.actor.Now()-g.start)
	} else {
		n.c.stats.NegotiationFailures++
	}
}

// run runs one gather/plan/buy attempt under the configured gather
// strategy.
func (g *negotiation) run() {
	n := g.n
	if g.giveBacks > 0 {
		// A round must see every give-back acknowledged, or its gather
		// could observe slots still marked sold at their sellers.
		panic(fmt.Sprintf("pm2: node %d started a negotiation round with %d give-backs in flight", n.id, g.giveBacks))
	}
	if g.round >= maxNegotiationRounds {
		g.giveUp()
		return
	}
	switch n.c.cfg.Gather {
	case GatherTree:
		if !n.c.anyDown() {
			g.gatherTree()
			return
		}
		// A combining tree routed through a declared-dead interior node
		// would lose its whole subtree; after a failover the gather
		// degrades to the flat delta round.
		g.gatherDelta()
	case GatherDelta:
		g.gatherDelta()
	default:
		g.gatherSequential()
	}
}

// giveUp ends a spent round budget, or a round whose view has no run.
// Only a view taken holding the whole slot space is authoritative: a
// negotiation that holds it fails, any other escalates.
func (g *negotiation) giveUp() {
	if g.whole {
		g.finish(false)
		return
	}
	g.escalate()
}

// nextRound re-runs the round one attempt further.
func (g *negotiation) nextRound() {
	g.round++
	g.run()
}

// gatherSequential is the paper's step 2b verbatim: one bitmap Call per
// peer, each waiting for the previous reply. Every golden trace pins its
// event sequence.
func (g *negotiation) gatherSequential() {
	n := g.n
	maps := make([]*bitmap.Bitmap, n.c.Nodes())
	maps[n.id] = n.slots.Bitmap().Clone()

	order := make([]int, 0, n.c.Nodes()-1)
	for i := 0; i < n.c.Nodes(); i++ {
		if i != n.id && n.c.nodeAlive(i) {
			order = append(order, i)
		}
	}
	var gatherNext func(i int)
	gatherNext = func(i int) {
		if i == len(order) {
			g.planAndBuy(core.GlobalOr(maps), maps)
			return
		}
		peer := order[i]
		n.exchange(call{kind: gatherCall, dst: peer, ch: chBitmap, reply: func(reply *madeleine.Buffer) {
			maps[peer] = n.unpackBitmap(peer, reply)
			// Merging this bitmap into the global OR (step 2c is
			// incremental).
			n.mergeCharge(layout.BitmapBytes)
			gatherNext(i + 1)
		}, timeout: func() {
			// Retries exhausted: plan without this peer's slots.
			gatherNext(i + 1)
		}})
	}
	gatherNext(0)
}

// gatherTree routes the gather through the binomial combining tree rooted
// at this node: each child returns the OR of its whole subtree, so the
// initiator receives O(log n) messages. The merged map has no per-slot
// ownership, so the purchase proceeds as a range buy (planAndBuyRange).
func (g *negotiation) gatherTree() {
	global := g.n.slots.Bitmap().Clone()
	g.n.gatherSubtree(g.n.id, global, func() { g.planAndBuyRange(global) })
}

// gatherSubtree ORs the subtree maps of this node's children in the
// combining tree rooted at root into merged, then calls then. A child
// whose retries run out contributes nothing: its whole subtree is
// missing from the merge, at the initiator and at a relay alike.
func (n *Node) gatherSubtree(root int, merged *bitmap.Bitmap, then func()) {
	children := treeChildren(n.id, root, n.c.Nodes())
	if len(children) == 0 {
		then()
		return
	}
	outstanding := len(children)
	retire := func() {
		outstanding--
		if outstanding == 0 {
			then()
		}
	}
	for _, child := range children {
		n.exchange(call{kind: gatherCall, dst: child, ch: chGatherTree,
			patience: n.c.cfg.RPCTimeout * simtime.Time(treeDeadlineScale(child, root, n.c.Nodes())),
			build:    func(b *madeleine.Buffer) { b.PackU32(uint32(root)) },
			reply: func(sub *madeleine.Buffer) {
				if err := merged.OrBytes(sub.BytesSection()); err != nil {
					panic(fmt.Sprintf("pm2: bad subtree bitmap: %v", err))
				}
				n.mergeCharge(layout.BitmapBytes)
				retire()
			}, timeout: retire})
	}
}

// treeDeadlineScale widens a tree-gather call's deadline by the height
// of the callee's subtree. An interior relay only replies after every
// child resolved — in the worst case rpcMaxAttempts timed-out tries
// plus backoffs against an unreachable grandchild — so the parent's
// patience must dominate the child's whole retry budget or one
// unreachable leaf cascades into the loss of every subtree above it.
// One factor of rpcMaxAttempts+1 per level covers attempts × the
// child's own (already scaled) deadline with margin for backoffs and
// merge charges.
func treeDeadlineScale(child, root, nodes int) int {
	size := len(subtreeRanks(child, root, nodes))
	scale := 1
	for size > 1 {
		scale *= rpcMaxAttempts + 1
		size >>= 1
	}
	return scale
}

// onGatherTreeCall serves an interior (or leaf) position of a combining
// tree: gather the children's subtree maps, OR them into our own bitmap,
// and forward one merged map up.
func (n *Node) onGatherTreeCall(src int, req *madeleine.Call) {
	root := int(req.Msg.U32())
	if req.Msg.Err() != nil || root < 0 || root >= n.c.Nodes() {
		panic("pm2: corrupt tree-gather request")
	}
	merged := n.slots.Bitmap().Clone()
	n.gatherSubtree(root, merged, func() {
		raw := merged.Bytes()
		n.actor.Charge(n.c.cfg.Model.Memcpy(len(raw)))
		req.Reply(func(b *madeleine.Buffer) { b.PackBytes(raw) })
	})
}

// mergeCharge charges the cost of folding bytes of gathered bitmap
// payload into a global view and accounts them in
// Stats.GatherMergedBytes — the merge term the delta gather attacks.
func (n *Node) mergeCharge(bytes int) {
	n.actor.Charge(n.c.cfg.Model.BitmapScan(bytes))
	n.c.stats.GatherMergedBytes += uint64(bytes)
}

// unpackBitmap decodes a gathered bitmap reply.
func (n *Node) unpackBitmap(peer int, reply *madeleine.Buffer) *bitmap.Bitmap {
	bm, err := bitmap.FromBytes(layout.SlotCount, reply.BytesSection())
	if err != nil {
		panic(fmt.Sprintf("pm2: bad bitmap from node %d: %v", peer, err))
	}
	return bm
}

// planAndBuy plans the purchase on a gathered global view and the
// per-node maps it was merged from, and executes it (paper steps 2c–2e)
// — the common tail of the per-peer-map gathers (sequential, delta).
// Only a view taken holding the whole slot space is split strictly;
// any other may be torn (see core.PurchaseAt).
func (g *negotiation) planAndBuy(global *bitmap.Bitmap, maps []*bitmap.Bitmap) {
	start, size := g.planRun(global)
	if start < 0 {
		g.giveUp()
		return
	}
	plan := core.PurchaseAt(maps, start, size, g.n.id, !g.whole)
	g.withRunLocks(start, size, func() { g.executePurchase(plan) }, g.retryUnsecured)
}

// retryUnsecured re-plans after a shard manager timed out: nothing was
// secured, so the round retries after the usual backoff.
func (g *negotiation) retryUnsecured() { g.retryAfterReturns(nil) }

// planRun first-fit searches the global view for the run to buy (step
// 2d) and returns its start, or -1, and its size. With PreBuySlots
// configured, a larger run is tried first, "to pre-buy slots in
// prevision of foreseeable large allocation requests" (§4.4).
func (g *negotiation) planRun(global *bitmap.Bitmap) (start, size int) {
	n := g.n
	n.actor.Charge(n.c.cfg.Model.BitmapScan(layout.BitmapBytes))
	if pre := n.c.cfg.PreBuySlots; pre > 0 {
		if start := g.findRun(global, g.k+pre); start >= 0 {
			return start, g.k + pre
		}
	}
	return g.findRun(global, g.k), g.k
}

// findRun is the first-fit search for size free slots. A holder of the
// whole slot space races no other negotiation, so it searches the
// paper's way, from slot 0. Any other searches from its node's home
// origin and wraps back to slot 0, which keeps concurrent initiators in
// disjoint regions, and so on disjoint shard sets.
func (g *negotiation) findRun(global *bitmap.Bitmap, size int) int {
	if !g.whole {
		if start := global.FindRunFrom(g.n.homeOrigin(), size); start >= 0 {
			return start
		}
	}
	return global.FindRun(size)
}

// executePurchase carries out a planned purchase (paper step 2e): one
// atomic purchase message per seller, the initiator-side race check, and
// the give-back/retry path on any decline. Paper 2e sends each owner one
// message, so the shares are grouped by seller, in plan order, into a
// fresh slice: a late acceptance's give-back keeps its shares, and the
// purchase is recorded in the order of plan.Sellers.
func (g *negotiation) executePurchase(plan core.Purchase) {
	g.plan, g.sellers = plan, slices.Clone(plan.Sellers)
	first := func(sh core.SellerShare) int {
		return slices.IndexFunc(plan.Sellers, func(o core.SellerShare) bool { return o.Node == sh.Node })
	}
	slices.SortStableFunc(g.sellers, func(a, b core.SellerShare) int { return first(a) - first(b) })
	g.buyFrom(0)
}

// buyFrom buys the shares of the seller whose group starts at
// g.sellers[i], then those of the sellers after it, and records the
// purchase once every share is secured.
func (g *negotiation) buyFrom(i int) {
	n := g.n
	if i == len(g.sellers) {
		// All shares secured. Re-validate our own contribution to the
		// run before recording it: a racing local allocation may have
		// consumed one of our slots during the gather, in which case the
		// run is broken — give every secured share back and retry with
		// fresh bitmaps.
		if !n.ownShareIntact(g.plan) {
			g.returnSecured(i)
			return
		}
		// Mark the bought slots ours (paper 2d: "mark these slots with 1
		// in the bitmap of the requesting node").
		for _, sh := range g.plan.Sellers {
			if err := n.slots.BuyRun(sh.Start, sh.N); err != nil {
				panic(fmt.Sprintf("pm2: recording purchase: %v", err))
			}
		}
		g.finish(true)
		return
	}
	end := g.sellerEnd(i)
	seller, shares := g.sellers[i].Node, g.sellers[i:end]
	// The owner allocated some of those slots since the gather.
	declined := func() { g.returnSecured(i) }
	n.exchange(call{kind: claimCall, dst: seller, ch: chBuy, build: func(b *madeleine.Buffer) {
		b.PackU32(opPurchase)
		packShares(b, shares)
	}, reply: func(reply *madeleine.Buffer) {
		if reply.U32() == 1 {
			g.buyFrom(end)
			return
		}
		declined()
	}, timeout: declined, late: func(reply *madeleine.Buffer) {
		// A timeout reads as a decline, so an acceptance arriving after
		// it leaves the shares sold to a buyer that already re-planned
		// without them: return the orphans at once.
		if reply.U32() == 1 {
			n.giveBack(seller, shares, func() {})
		}
	}})
}

// sellerEnd returns the end of the seller group starting at g.sellers[i].
func (g *negotiation) sellerEnd(i int) int {
	end := i + 1
	for end < len(g.sellers) && g.sellers[end].Node == g.sellers[i].Node {
		end++
	}
	return end
}

// returnSecured gives the shares of g.sellers[:secured] straight back,
// one give-back per seller, and retries with fresh bitmaps only once
// every give-back has been acknowledged — re-gathering earlier could
// observe the returned slots at neither party.
func (g *negotiation) returnSecured(secured int) {
	var returns []pendingReturn
	for i := 0; i < secured; i = g.sellerEnd(i) {
		returns = append(returns, pendingReturn{seller: g.sellers[i].Node, shares: g.sellers[i:g.sellerEnd(i)]})
	}
	g.retryAfterReturns(returns)
}

// ownShareIntact reports whether every slot of the planned run that the
// plan attributed to this node (rather than to a seller) is still
// owned+free here — the initiator-side half of the purchase race check.
func (n *Node) ownShareIntact(plan core.Purchase) bool {
	for s := plan.Start; s < plan.Start+plan.N; s++ {
		sold := false
		for _, sh := range plan.Sellers {
			if s >= sh.Start && s < sh.Start+sh.N {
				sold = true
				break
			}
		}
		if !sold && !n.slots.Bitmap().Test(s) {
			return false
		}
	}
	return true
}

// pendingReturn is one seller's worth of secured shares to give back.
type pendingReturn struct {
	seller int
	shares []core.SellerShare
}

// retryAfterReturns gives every secured share back and re-runs the round
// only after all give-back replies arrived (the §4.4 retry/give-back
// ordering fix). Any shard locks the failed plan held are released
// first — the retry re-plans and may touch different shards — and the
// re-run waits out a deterministic per-attempt backoff, so two sharded
// initiators whose runs collided re-plan at different virtual times
// instead of re-colliding in lockstep, and the attempt count of any
// race is reproducible run to run.
func (g *negotiation) retryAfterReturns(returns []pendingReturn) {
	n := g.n
	n.c.stats.NegotiationRetries++
	if !g.whole {
		n.unlockAll(&g.held)
	}
	retry := func() {
		if g.whole {
			// Holding the whole slot space, a retry can only be racing
			// a local allocation, which is finite: re-issue at once,
			// keeping the paper-faithful path (and its goldens) intact.
			g.nextRound()
			return
		}
		n.actor.Post(n.actor.Now()+negotiationBackoff(g.round), g.nextRound)
	}
	if len(returns) == 0 {
		retry()
		return
	}
	g.giveBacks += len(returns)
	for _, r := range returns {
		n.giveBack(r.seller, r.shares, func() {
			g.giveBacks--
			if g.giveBacks == 0 {
				retry()
			}
		})
	}
}

// planAndBuyRange is the purchase step after a tree gather: the merged
// map names the run but not its owners, so every peer that may own slots
// is asked to sell its intersection with the chosen run. If the sold
// pieces plus our own free slots cover the run, the purchase stands;
// otherwise everything sold is given back and the round retries.
func (g *negotiation) planAndBuyRange(global *bitmap.Bitmap) {
	n := g.n
	start, size := g.planRun(global)
	if start < 0 {
		g.giveUp()
		return
	}

	peers := make([]int, 0, n.c.Nodes()-1)
	for i := 0; i < n.c.Nodes(); i++ {
		if i == n.id || !n.c.nodeAlive(i) {
			continue
		}
		peers = append(peers, i)
	}
	sold := make(map[int][]core.SellerShare)
	complete := func() {
		// Coverage check: our own free slots plus everything sold
		// must tile the whole run.
		covered := n.slots.Bitmap().Clone()
		for _, shares := range sold {
			for _, sh := range shares {
				covered.SetRun(sh.Start, sh.N)
			}
		}
		n.actor.Charge(n.c.cfg.Model.BitmapScan(layout.BitmapBytes))
		if covered.TestRun(start, size) {
			for _, peer := range peers {
				for _, sh := range sold[peer] {
					if err := n.slots.BuyRun(sh.Start, sh.N); err != nil {
						panic(fmt.Sprintf("pm2: recording range purchase: %v", err))
					}
				}
			}
			g.finish(true)
			return
		}
		// Some owner allocated part of the run since the gather: give
		// everything back and retry with a fresh gather.
		var returns []pendingReturn
		for _, peer := range peers {
			if len(sold[peer]) > 0 {
				returns = append(returns, pendingReturn{seller: peer, shares: sold[peer]})
			}
		}
		g.retryAfterReturns(returns)
	}
	g.withRunLocks(start, size, func() {
		if len(peers) == 0 {
			complete()
			return
		}
		outstanding := len(peers)
		retire := func() {
			outstanding--
			if outstanding == 0 {
				complete()
			}
		}
		for _, p := range peers {
			n.exchange(call{kind: claimCall, dst: p, ch: chBuy, build: func(b *madeleine.Buffer) {
				b.PackU32(opRangeBuy)
				b.PackU32(uint32(start)).PackU32(uint32(size))
			}, reply: func(reply *madeleine.Buffer) {
				sold[p] = unpackSold(p, reply)
				retire()
			}, timeout: retire, late: func(reply *madeleine.Buffer) {
				// A timeout read as zero runs sold (the coverage check in
				// complete handles the shortfall), but the peer did sell
				// after all: return the orphaned runs at once.
				if orphans := unpackSold(p, reply); len(orphans) > 0 {
					n.giveBack(p, orphans, func() {})
				}
			}})
		}
	}, g.retryUnsecured)
}

// unpackSold decodes a range purchase's reply: the runs peer p sold.
func unpackSold(p int, reply *madeleine.Buffer) (sold []core.SellerShare) {
	count := int(reply.U32())
	for i := 0; i < count; i++ {
		s := int(reply.U32())
		c := int(reply.U32())
		sold = append(sold, core.SellerShare{Node: p, Start: s, N: c})
	}
	return sold
}

func packShares(b *madeleine.Buffer, shares []core.SellerShare) {
	b.PackU32(uint32(len(shares)))
	for _, sh := range shares {
		b.PackU32(uint32(sh.Start)).PackU32(uint32(sh.N))
	}
}

// giveBack returns shares to seller: after a failed round, or after a
// purchase whose acceptance arrived past its timeout (the buyer already
// re-planned without them). done runs once the seller acknowledged or
// the call timed out. A timeout reads as acknowledged: the give-back
// either executed (its late ack is dropped) or was discarded on arrival.
// That, or a declined give-back (the owner re-acquired some of those
// slots meanwhile, and claiming the rest could double-own the collided
// ones), parks the slots at neither party until the next
// defragmentation — a bounded loss in an already-pathological race, and
// strictly better than blocking the next round on an unreachable seller.
func (n *Node) giveBack(seller int, shares []core.SellerShare, done func()) {
	n.exchange(call{kind: giveBackCall, dst: seller, ch: chBuy, build: func(b *madeleine.Buffer) {
		b.PackU32(opGiveBack)
		packShares(b, shares)
	}, reply: func(*madeleine.Buffer) { done() }, timeout: done})
}

// onBitmapCall serves a gather request: serialize and return our bitmap.
func (n *Node) onBitmapCall(src int, req *madeleine.Call) {
	n.actor.Charge(n.c.cfg.Model.Memcpy(layout.BitmapBytes))
	req.Reply(func(b *madeleine.Buffer) { b.PackBytesAppend(n.slots.Bitmap().AppendBytes) })
}

// onBuyCall serves a purchase, give-back, or range purchase of slot runs.
// A purchase is atomic: either every requested run is still owned free
// and all are sold, or the whole batch is declined. A give-back is
// likewise atomic: if any returned run collides with slots we re-acquired
// in the meantime, the whole batch is declined (the giver keeps it) —
// a racing re-allocation must not crash the node.
func (n *Node) onBuyCall(src int, req *madeleine.Call) {
	op := req.Msg.U32()
	// The test seam runs before any branch so races can be injected
	// into every purchase flavor; a 0 reply reads as "declined" for a
	// purchase or give-back and as "zero runs sold" for a range buy.
	if n.buyHook != nil && n.buyHook(src, op == opGiveBack) {
		req.Reply(func(b *madeleine.Buffer) { b.PackU32(0) })
		return
	}
	if op == opRangeBuy {
		start := int(req.Msg.U32())
		k := int(req.Msg.U32())
		if req.Msg.Err() != nil || start < 0 || k <= 0 || start+k > layout.SlotCount {
			panic("pm2: corrupt range-purchase message")
		}
		n.actor.Charge(n.c.cfg.Model.BitmapScan(layout.BitmapBytes))
		sold, err := n.slots.SellIntersection(start, k)
		if err != nil {
			panic(fmt.Sprintf("pm2: node %d selling range [%d,+%d): %v", n.id, start, k, err))
		}
		req.Reply(func(b *madeleine.Buffer) {
			b.PackU32(uint32(len(sold)))
			for _, r := range sold {
				b.PackU32(uint32(r[0])).PackU32(uint32(r[1]))
			}
		})
		return
	}
	giveBack := op == opGiveBack
	count := int(req.Msg.U32())
	type run struct{ start, k int }
	runs := make([]run, count)
	for i := range runs {
		runs[i] = run{int(req.Msg.U32()), int(req.Msg.U32())}
	}
	if req.Msg.Err() != nil {
		panic("pm2: corrupt purchase message")
	}
	decline := func() {
		req.Reply(func(b *madeleine.Buffer) { b.PackU32(0) })
	}
	// Updating the bitmap for the batch costs one scan, like installing
	// the returned bitmap of the paper's step 2e.
	n.actor.Charge(n.c.cfg.Model.BitmapScan(layout.BitmapBytes))
	if giveBack {
		for _, r := range runs {
			if !n.slots.CanBuyRun(r.start, r.k) {
				// We re-acquired some of those slots since selling
				// them (a racing purchase of our own): decline the
				// whole batch, the giver keeps the slots.
				decline()
				return
			}
		}
		for _, r := range runs {
			if err := n.slots.BuyRun(r.start, r.k); err != nil {
				panic(fmt.Sprintf("pm2: node %d taking back checked [%d,+%d): %v", n.id, r.start, r.k, err))
			}
		}
		req.Reply(func(b *madeleine.Buffer) { b.PackU32(1) })
		return
	}
	for _, r := range runs {
		if !n.slots.Bitmap().TestRun(r.start, r.k) {
			// We no longer own (all of) those slots: decline the
			// whole batch.
			decline()
			return
		}
	}
	for _, r := range runs {
		if err := n.slots.SellRun(r.start, r.k); err != nil {
			panic(fmt.Sprintf("pm2: node %d selling checked run: %v", n.id, err))
		}
	}
	req.Reply(func(b *madeleine.Buffer) { b.PackU32(1) })
}
