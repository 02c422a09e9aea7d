package pm2

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/policy"
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

// negotiate acquires n contiguous slots into this node's bitmap and calls
// done(true), or done(false) if the cluster is out of contiguous space.
func (n *Node) negotiate(k int, done func(bool)) {
	start := n.actor.Now()
	finish := func(ok bool) {
		lat := n.actor.Now() - start
		n.actor.Commit(func() {
			n.c.stats.Negotiations++
			if ok {
				// Only successful negotiations enter the latency series the
				// percentiles summarize; a failure (round exhaustion, cluster
				// out of contiguous space) is counted on its own instead of
				// skewing the p50/p95/p99 columns.
				n.c.stats.NegotiationLatencies = append(n.c.stats.NegotiationLatencies, lat)
			} else {
				n.c.stats.NegotiationFailures++
			}
		})
		done(ok)
	}
	if n.c.cfg.Arbiter == ArbiterGlobal {
		// With a timeout configured, an unreachable lock manager fails
		// the negotiation instead of hanging this thread forever.
		n.acquireLockOr(func() {
			n.negotiateRound(k, 0, func(ok bool) {
				n.releaseLock()
				finish(ok)
			})
		}, func() { finish(false) })
		return
	}
	// Sharded arbiter: no system-wide section. The node's own
	// negotiations still run one at a time through the local queue;
	// shard locking happens per round, after planning, and an escalated
	// negotiation releases every shard here — see arbiter.go.
	n.startLocalNegotiation(func() {
		n.negotiateRound(k, 0, func(ok bool) {
			if n.escalated {
				n.escalated = false
				n.releaseRunLocks()
			}
			n.finishLocalNegotiation()
			finish(ok)
		})
	})
}

// negotiateRound runs one gather/plan/buy attempt under the configured
// gather strategy.
func (n *Node) negotiateRound(k, round int, done func(bool)) {
	if n.pendingGiveBacks > 0 {
		// A round must see every give-back acknowledged, or its gather
		// could observe slots still marked sold at their sellers.
		panic(fmt.Sprintf("pm2: node %d started a negotiation round with %d give-backs in flight", n.id, n.pendingGiveBacks))
	}
	if round >= maxNegotiationRounds {
		if n.c.cfg.Arbiter == ArbiterSharded && !n.escalated {
			n.escalate(k, done)
			return
		}
		done(false)
		return
	}
	switch n.c.cfg.Gather {
	case GatherTree:
		if n.c.anyDown() {
			// A combining tree routed through a declared-dead interior
			// node would lose its whole subtree; after a failover the
			// gather degrades to the flat delta round.
			n.gatherDelta(k, round, done)
			return
		}
		n.gatherTree(k, round, done)
	case GatherDelta:
		n.gatherDelta(k, round, done)
	default:
		n.gatherSequential(k, round, done)
	}
}

// gatherSequential is the paper's step 2b verbatim: one bitmap Call per
// peer, each waiting for the previous reply. Every golden trace pins its
// event sequence.
func (n *Node) gatherSequential(k, round int, done func(bool)) {
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
			n.planAndBuy(k, round, maps, done)
			return
		}
		peer := order[i]
		n.gatherCall(peer, chBitmap, nil, func(reply *madeleine.Buffer) {
			maps[peer] = n.unpackBitmap(peer, reply)
			// Merging this bitmap into the global OR (step 2c is
			// incremental).
			n.mergeCharge(layout.BitmapBytes)
			gatherNext(i + 1)
		}, func() {
			// Retries exhausted: plan without this peer's slots.
			gatherNext(i + 1)
		})
	}
	gatherNext(0)
}

// gatherTree routes the gather through the binomial combining tree rooted
// at this node: each child returns the OR of its whole subtree, so the
// initiator receives O(log n) messages. The merged map has no per-slot
// ownership, so the purchase proceeds as a range buy (planAndBuyRange).
func (n *Node) gatherTree(k, round int, done func(bool)) {
	global := n.slots.Bitmap().Clone()
	children := treeChildren(n.id, n.id, n.c.Nodes())
	if len(children) == 0 {
		n.planAndBuyRange(k, round, global, done)
		return
	}
	outstanding := len(children)
	for _, child := range children {
		n.gatherCallScaled(child, chGatherTree, treeDeadlineScale(child, n.id, n.c.Nodes()), func(b *madeleine.Buffer) {
			b.PackU32(uint32(n.id)) // tree root
		}, func(reply *madeleine.Buffer) {
			if err := global.OrBytes(reply.BytesSection()); err != nil {
				panic(fmt.Sprintf("pm2: bad subtree bitmap: %v", err))
			}
			n.mergeCharge(layout.BitmapBytes)
			outstanding--
			if outstanding == 0 {
				n.planAndBuyRange(k, round, global, done)
			}
		}, func() {
			// Retries exhausted: the whole subtree contributes nothing
			// to this round's view.
			outstanding--
			if outstanding == 0 {
				n.planAndBuyRange(k, round, global, done)
			}
		})
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
	reply := func() {
		raw := merged.Bytes()
		n.actor.Charge(n.c.cfg.Model.Memcpy(len(raw)))
		req.Reply(func(b *madeleine.Buffer) { b.PackBytes(raw) })
	}
	children := treeChildren(n.id, root, n.c.Nodes())
	if len(children) == 0 {
		reply()
		return
	}
	outstanding := len(children)
	for _, child := range children {
		n.gatherCallScaled(child, chGatherTree, treeDeadlineScale(child, root, n.c.Nodes()), func(b *madeleine.Buffer) {
			b.PackU32(uint32(root))
		}, func(sub *madeleine.Buffer) {
			if err := merged.OrBytes(sub.BytesSection()); err != nil {
				panic(fmt.Sprintf("pm2: bad subtree bitmap: %v", err))
			}
			n.mergeCharge(layout.BitmapBytes)
			outstanding--
			if outstanding == 0 {
				reply()
			}
		}, func() {
			// Retries exhausted: forward the merge without this subtree,
			// exactly as the initiator would.
			outstanding--
			if outstanding == 0 {
				reply()
			}
		})
	}
}

// mergeCharge charges the cost of folding bytes of gathered bitmap
// payload into a global view and accounts them in
// Stats.GatherMergedBytes — the merge term the delta gather attacks.
func (n *Node) mergeCharge(bytes int) {
	n.actor.Charge(n.c.cfg.Model.BitmapScan(bytes))
	n.mergedPending += uint64(bytes)
	n.actor.Commit(n.commitMergedFn)
}

// commitMerged adds the merged bytes charged since the last commit to
// Stats.GatherMergedBytes. Under the parallel kernel several merges of
// one window queue a commit each; the first moves them all, the rest
// add zero, so the total is exact in any commit order.
func (n *Node) commitMerged() {
	n.c.stats.GatherMergedBytes += n.mergedPending
	n.mergedPending = 0
}

// unpackBitmap decodes a gathered bitmap reply.
func (n *Node) unpackBitmap(peer int, reply *madeleine.Buffer) *bitmap.Bitmap {
	bm, err := bitmap.FromBytes(layout.SlotCount, reply.BytesSection())
	if err != nil {
		panic(fmt.Sprintf("pm2: bad bitmap from node %d: %v", peer, err))
	}
	return bm
}

// purchaseCandidates bounds how many runs the sharded planner
// enumerates before ranking them fewest-owners-first.
const purchaseCandidates = 4

// planAndBuy computes the purchase and executes it (paper steps 2c–2e).
// With PreBuySlots configured, a larger run is tried first, "to pre-buy
// slots in prevision of foreseeable large allocation requests" (§4.4).
func (n *Node) planAndBuy(k, round int, maps []*bitmap.Bitmap, done func(bool)) {
	// First-fit search over the global map (step 2d).
	n.actor.Charge(n.c.cfg.Model.BitmapScan(layout.BitmapBytes))
	plan, ok := n.planOn(core.GlobalOr(maps), maps, k)
	if !ok {
		done(false)
		return
	}
	n.withRunLocks(plan.Start, plan.N, func() {
		n.executePurchase(k, round, plan, done)
	}, func() {
		// A shard manager timed out: nothing was secured, re-plan after
		// the usual backoff.
		n.retryAfterReturns(k, round, nil, done)
	})
}

// planOn chooses the purchase plan on a prepared global view,
// preferring the PreBuySlots-padded run when one exists.
func (n *Node) planOn(global *bitmap.Bitmap, maps []*bitmap.Bitmap, k int) (core.Purchase, bool) {
	if pre := n.c.cfg.PreBuySlots; pre > 0 {
		if plan, ok := n.planRun(global, maps, k+pre); ok {
			return plan, true
		}
	}
	return n.planRun(global, maps, k)
}

// planRun plans one purchase of k slots. The global arbiter keeps the
// paper's first fit verbatim; the sharded arbiter searches from this
// node's home origin and ranks a handful of candidate runs
// fewest-owners-first through the cost model (internal/policy).
func (n *Node) planRun(global *bitmap.Bitmap, maps []*bitmap.Bitmap, k int) (core.Purchase, bool) {
	if n.c.cfg.Arbiter == ArbiterGlobal {
		return core.PlanPurchaseOn(global, maps, k, n.id)
	}
	cands := core.PlanCandidatesOn(global, maps, k, n.id, n.homeOrigin(), purchaseCandidates)
	if len(cands) == 0 {
		return core.Purchase{}, false
	}
	return cands[policy.CheapestPurchase(cands, n.c.cfg.Model)], true
}

// executePurchase carries out a planned purchase (paper step 2e): one
// atomic purchase message per seller, the initiator-side race check, and
// the give-back/retry path on any decline. Shared by the per-peer-map
// gathers (sequential, delta).
func (n *Node) executePurchase(k, round int, plan core.Purchase, done func(bool)) {
	// Group the shares by owner: one purchase message per seller node
	// (paper 2e sends one updated bitmap back to each owner, not one
	// message per slot run).
	order := make([]int, 0, len(plan.Sellers))
	byNode := make(map[int][]core.SellerShare)
	for _, sh := range plan.Sellers {
		if _, seen := byNode[sh.Node]; !seen {
			order = append(order, sh.Node)
		}
		byNode[sh.Node] = append(byNode[sh.Node], sh)
	}

	var buyNext func(i int)
	buyNext = func(i int) {
		if i == len(order) {
			// All shares secured. Re-validate our own contribution to
			// the run before recording it: a racing local allocation
			// may have consumed one of our slots during the gather, in
			// which case the run is broken — give every secured share
			// back and retry with fresh bitmaps.
			if !n.ownShareIntact(plan) {
				var returns []pendingReturn
				for _, seller := range order {
					returns = append(returns, pendingReturn{seller: seller, shares: byNode[seller]})
				}
				n.retryAfterReturns(k, round, returns, done)
				return
			}
			// Mark the bought slots ours (paper 2d: "mark these slots
			// with 1 in the bitmap of the requesting node").
			for _, sh := range plan.Sellers {
				if err := n.slots.BuyRun(sh.Start, sh.N); err != nil {
					panic(fmt.Sprintf("pm2: recording purchase: %v", err))
				}
			}
			n.releaseRunLocks()
			done(true)
			return
		}
		seller := order[i]
		shares := byNode[seller]
		declined := func() {
			// The owner allocated some of those slots since the
			// gather: give already-secured shares straight back to
			// their sellers, and only once every give-back has been
			// acknowledged retry with fresh bitmaps — re-gathering
			// earlier could observe the returned slots at neither
			// party.
			var returns []pendingReturn
			for j := 0; j < i; j++ {
				returns = append(returns, pendingReturn{seller: order[j], shares: byNode[order[j]]})
			}
			n.retryAfterReturns(k, round, returns, done)
		}
		n.callRPC(seller, chBuy, func(b *madeleine.Buffer) {
			b.PackU32(opPurchase)
			packShares(b, shares)
		}, func(reply *madeleine.Buffer) {
			if reply.U32() == 1 {
				buyNext(i + 1)
				return
			}
			declined()
		}, declined, func(reply *madeleine.Buffer) {
			// A timeout reads as a decline, so an acceptance arriving
			// after it leaves the shares sold to a buyer that already
			// re-planned without them: return the orphans at once.
			if reply.U32() == 1 {
				n.compGiveBack(seller, shares)
			}
		})
	}
	buyNext(0)
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
func (n *Node) retryAfterReturns(k, round int, returns []pendingReturn, done func(bool)) {
	n.actor.Commit(func() { n.c.stats.NegotiationRetries++ })
	n.releaseRunLocks()
	retry := func() {
		if n.c.cfg.Arbiter == ArbiterGlobal {
			// Under the system-wide lock a retry can only be racing a
			// local allocation, which is finite: re-issue immediately,
			// keeping the paper-faithful path (and its goldens) intact.
			n.negotiateRound(k, round+1, done)
			return
		}
		n.actor.Post(n.actor.Now()+negotiationBackoff(round), func() {
			n.negotiateRound(k, round+1, done)
		})
	}
	if len(returns) == 0 {
		retry()
		return
	}
	outstanding := len(returns)
	for _, r := range returns {
		n.returnSlots(r.seller, r.shares, func() {
			outstanding--
			if outstanding == 0 {
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
func (n *Node) planAndBuyRange(k, round int, global *bitmap.Bitmap, done func(bool)) {
	n.actor.Charge(n.c.cfg.Model.BitmapScan(layout.BitmapBytes))
	// The merged map has no per-slot ownership, so fewest-owners ranking
	// is impossible here; the sharded arbiter still searches from the
	// node's home origin (wrapping) to keep concurrent initiators in
	// disjoint regions.
	find := func(size int) int {
		if n.c.cfg.Arbiter == ArbiterGlobal {
			return global.FindRun(size)
		}
		if s := global.FindRunFrom(n.homeOrigin(), size); s >= 0 {
			return s
		}
		return global.FindRun(size)
	}
	size := 0
	start := -1
	if pre := n.c.cfg.PreBuySlots; pre > 0 {
		if s := find(k + pre); s >= 0 {
			start, size = s, k+pre
		}
	}
	if start < 0 {
		if s := find(k); s >= 0 {
			start, size = s, k
		}
	}
	if start < 0 {
		done(false)
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
			n.releaseRunLocks()
			done(true)
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
		n.retryAfterReturns(k, round, returns, done)
	}
	n.withRunLocks(start, size, func() {
		if len(peers) == 0 {
			complete()
			return
		}
		outstanding := len(peers)
		for _, peer := range peers {
			p := peer
			n.callRPC(p, chBuy, func(b *madeleine.Buffer) {
				b.PackU32(opRangeBuy)
				b.PackU32(uint32(start)).PackU32(uint32(size))
			}, func(reply *madeleine.Buffer) {
				count := int(reply.U32())
				for i := 0; i < count; i++ {
					s := int(reply.U32())
					c := int(reply.U32())
					sold[p] = append(sold[p], core.SellerShare{Node: p, Start: s, N: c})
				}
				outstanding--
				if outstanding == 0 {
					complete()
				}
			}, func() {
				// Timeout reads as zero runs sold; the coverage check in
				// complete() handles any shortfall.
				outstanding--
				if outstanding == 0 {
					complete()
				}
			}, func(reply *madeleine.Buffer) {
				// The peer did sell after all, to a buyer that already
				// counted it as zero: return the orphaned runs at once.
				count := int(reply.U32())
				var orphans []core.SellerShare
				for i := 0; i < count; i++ {
					s := int(reply.U32())
					c := int(reply.U32())
					orphans = append(orphans, core.SellerShare{Node: p, Start: s, N: c})
				}
				if len(orphans) > 0 {
					n.compGiveBack(p, orphans)
				}
			})
		}
	}, func() {
		// A shard manager timed out: nothing was secured, re-plan after
		// the usual backoff.
		n.retryAfterReturns(k, round, nil, done)
	})
}

func packShares(b *madeleine.Buffer, shares []core.SellerShare) {
	b.PackU32(uint32(len(shares)))
	for _, sh := range shares {
		b.PackU32(uint32(sh.Start)).PackU32(uint32(sh.N))
	}
}

// returnSlots gives secured (but not yet recorded) shares back to their
// original owner after a failed round; done runs when the owner has
// acknowledged. If the owner declines the give-back (it re-acquired some
// of those slots in the meantime), we simply drop our claim: the owner
// keeps whatever it holds, and claiming the rest ourselves could
// double-own the collided slots. A declined give-back can park the
// non-collided slots out of circulation until the next defragmentation —
// a bounded loss in an already-pathological race, and strictly better
// than the crash it replaces.
func (n *Node) returnSlots(seller int, shares []core.SellerShare, done func()) {
	n.pendingGiveBacks++
	n.callRPC(seller, chBuy, func(b *madeleine.Buffer) {
		b.PackU32(opGiveBack)
		packShares(b, shares)
	}, func(reply *madeleine.Buffer) {
		_ = reply.U32()
		n.pendingGiveBacks--
		done()
	}, func() {
		// Timeout reads as acknowledged: the give-back either executed
		// (its late ack is ignored below) or was discarded at arrival,
		// which parks the slots at neither party — the same bounded loss
		// as a declined give-back, and strictly better than blocking the
		// next round forever on an unreachable seller.
		n.pendingGiveBacks--
		done()
	}, func(reply *madeleine.Buffer) {
		// Late ack after the timeout already advanced the round: the
		// slots are back with their owner, nothing more to do.
		_ = reply.U32()
	})
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

// Lock manager (system-wide critical section), hosted on node 0.

func (n *Node) acquireLock(granted func()) {
	n.ep.Call(0, chLock, nil, func(*madeleine.Buffer) { granted() })
}

func (n *Node) releaseLock() {
	n.ep.Send(0, chUnlock, nil)
}

// onLockCall queues or grants the global lock (node 0 only).
func (n *Node) onLockCall(src int, req *madeleine.Call) {
	if n.id != 0 {
		panic("pm2: lock request at non-manager node")
	}
	if n.lockHeld {
		n.lockQueue = append(n.lockQueue, req)
		return
	}
	n.lockHeld = true
	req.Reply(nil)
}

// onUnlockMsg releases the lock and grants the next waiter (node 0 only).
func (n *Node) onUnlockMsg(src int, _ *madeleine.Buffer) {
	if !n.lockHeld {
		panic("pm2: unlock without lock")
	}
	if len(n.lockQueue) > 0 {
		next := n.lockQueue[0]
		n.lockQueue = n.lockQueue[:copy(n.lockQueue, n.lockQueue[1:])]
		next.Reply(nil)
		return
	}
	n.lockHeld = false
}
