package pm2

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/simtime"
)

// The request/reply deadline layer (Config.RPCTimeout). The paper's
// protocol assumes a reliable interconnect: every Call blocks its
// continuation until the reply arrives, so a partition or a crashed
// peer hangs the initiator forever. With a timeout configured, every
// protocol exchange that awaits a remote reply arms a zero-charge
// virtual-time timer on the initiator's own lane; at expiry the
// initiator stops waiting, counts Stats.RPCTimeouts, and either
// retries with deterministic exponential backoff (idempotent gather
// requests), falls back (remote spawn), or fails the operation
// gracefully (purchases, locks).
//
// Two hazards shape the per-channel policies:
//
//   - A partition-delayed *request* must not execute after its
//     initiator timed out and moved on — a retried purchase would then
//     apply twice. Deadline requests carry their expiry on the wire
//     (madeleine kindCallDL) and the receiver discards late arrivals
//     unanswered.
//   - A request that *did* execute, whose reply outran the initiator's
//     patience, leaves dangling remote state. Non-idempotent channels
//     therefore keep their reply handler armed past the timeout and
//     compensate: a late purchase acceptance is given straight back, a
//     late lock grant released immediately. Idempotent channels simply
//     cancel the wait (madeleine tombstones the orphan reply).
//
// With RPCTimeout == 0 every helper degrades to the plain ep.Call —
// no timer, no envelope change, byte-identical traces.

const (
	// rpcMaxAttempts bounds an idempotent request's tries: the initial
	// send plus retries, each preceded by a doubling backoff.
	rpcMaxAttempts = 3
	// rpcBackoffBase and rpcBackoffCap shape the retry backoff, the
	// same 25 µs-doubling style as negotiationBackoff.
	rpcBackoffBase = 25 * simtime.Microsecond
	rpcBackoffCap  = 400 * simtime.Microsecond
)

// rpcBackoff returns the deterministic delay before retry number
// try+1 of a timed-out idempotent request.
func rpcBackoff(try int) simtime.Time {
	d := rpcBackoffBase << uint(try)
	if d > rpcBackoffCap {
		return rpcBackoffCap
	}
	return d
}

// DefaultRPCTimeout derives the timeout from the cost model: twice the
// round trip of the heaviest common exchange (a small request shipping
// a full bitmap back), so a healthy reply always beats the timer with
// margin while a partitioned peer is abandoned within a few round
// trips.
func DefaultRPCTimeout(m *cost.Model) simtime.Time {
	return 2 * m.RoundTrip(128, layout.BitmapBytes)
}

// callRPC issues one deadline-guarded Call. done runs on a reply
// inside the deadline; timedOut runs at expiry. late, when non-nil,
// receives a reply that arrives after expiry — the compensation hook
// for non-idempotent requests; when nil the wait is canceled at expiry
// and a late reply is dropped by the endpoint's tombstone. With
// RPCTimeout == 0 this is exactly ep.Call and timedOut/late never run.
func (n *Node) callRPC(dst int, ch uint32, build func(*madeleine.Buffer), done func(*madeleine.Buffer), timedOut func(), late func(*madeleine.Buffer)) {
	n.callRPCWithin(n.c.cfg.RPCTimeout, dst, ch, build, done, timedOut, late)
}

// callRPCWithin is callRPC with an explicit patience. The tree gather
// widens the deadline of a call to an interior relay, whose reply nests
// its own children's deadlines and retries — see treeDeadlineScale.
func (n *Node) callRPCWithin(timeout simtime.Time, dst int, ch uint32, build func(*madeleine.Buffer), done func(*madeleine.Buffer), timedOut func(), late func(*madeleine.Buffer)) {
	if timeout == 0 {
		n.ep.Call(dst, ch, build, done)
		return
	}
	deadline := n.actor.Now() + timeout
	answered := false
	expired := false
	id := n.ep.CallDL(dst, ch, deadline, build, func(reply *madeleine.Buffer) {
		if expired {
			if late != nil {
				late(reply)
			}
			return
		}
		answered = true
		done(reply)
	})
	n.actor.Post(deadline, func() {
		if answered {
			return
		}
		expired = true
		if late == nil {
			n.ep.Cancel(id)
		}
		n.actor.Commit(func() { n.c.stats.RPCTimeouts++ })
		timedOut()
	})
}

// gatherCall issues one idempotent gather request (chBitmap,
// chGatherTree, chBitmapDelta) with deadline and backoff retries; miss
// runs once the retry budget is exhausted, and the caller skips the
// unresponsive rank — safe for planning, which then simply does not
// see that peer's free slots. Replies that arrive after a timeout are
// dropped: the retry (or the next round's gather) re-reads the peer.
func (n *Node) gatherCall(dst int, ch uint32, build func(*madeleine.Buffer), done func(*madeleine.Buffer), miss func()) {
	n.gatherCallScaled(dst, ch, 1, build, done, miss)
}

// gatherCallScaled is gatherCall with the per-attempt deadline widened
// by an integer factor. The combining tree uses it for calls to interior
// relays: a relay cannot reply before its own children's retry budgets
// resolve, so a flat deadline at every level would expire at the parent
// first and cascade the loss of one unreachable leaf into the loss of
// every subtree above it.
func (n *Node) gatherCallScaled(dst int, ch uint32, scale int, build func(*madeleine.Buffer), done func(*madeleine.Buffer), miss func()) {
	if n.c.cfg.RPCTimeout == 0 {
		n.ep.Call(dst, ch, build, done)
		return
	}
	timeout := n.c.cfg.RPCTimeout * simtime.Time(scale)
	var attempt func(try int)
	attempt = func(try int) {
		n.callRPCWithin(timeout, dst, ch, build, done, func() {
			if try+1 >= rpcMaxAttempts {
				miss()
				return
			}
			n.actor.Post(n.actor.Now()+rpcBackoff(try), func() { attempt(try + 1) })
		}, nil)
	}
	attempt(0)
}

// acquireLockOr is acquireLock with a timeout continuation for the
// negotiation path: expiry abandons the negotiation (the caller counts
// a failure) instead of hanging it. A grant that outruns the timeout is
// released immediately — the system-wide section must never be left
// held by a waiter that walked away.
func (n *Node) acquireLockOr(granted, timedOut func()) {
	if n.c.cfg.RPCTimeout == 0 {
		n.acquireLock(granted)
		return
	}
	n.callRPCWithin(n.lockPatience(), 0, chLock, nil,
		func(*madeleine.Buffer) { granted() },
		timedOut,
		func(*madeleine.Buffer) { n.releaseLock() })
}

// lockPatience is the deadline for the system-wide lock acquisition.
// Unlike a gather, a lock request legitimately queues: up to Nodes-1
// earlier holders may each burn up to Nodes × rpcMaxAttempts gather
// deadlines routing around unreachable peers before releasing, so the
// flat RPC deadline would read healthy contention as a dead manager
// and fail negotiations that merely queued. Quadratic in the cluster
// size, the wait is still bounded and deterministic when the manager
// really is unreachable.
func (n *Node) lockPatience() simtime.Time {
	nodes := simtime.Time(n.c.Nodes())
	return n.c.cfg.RPCTimeout * rpcMaxAttempts * nodes * nodes
}

// compGiveBack returns shares a seller sold to a purchase whose reply
// arrived after the initiator's timeout: the initiator already treated
// the purchase as declined and re-planned, so the orphaned shares go
// straight back. Unlike returnSlots this rides outside the round's
// give-back accounting (the round that bought them is long gone). A
// decline — or a timeout of the give-back itself — parks the slots at
// neither party until the next defragmentation: a bounded loss in an
// already-pathological race.
func (n *Node) compGiveBack(seller int, shares []core.SellerShare) {
	n.callRPC(seller, chBuy, func(b *madeleine.Buffer) {
		b.PackU32(opGiveBack)
		packShares(b, shares)
	}, func(*madeleine.Buffer) {}, func() {}, nil)
}

// spawnRemote issues the remote thread-creation LRPC. With a timeout
// configured, an unresponsive destination is abandoned and the spawn
// falls back to further live, unsuspected ranks; exhaustion reports
// tid 0 to the caller, like a local creation failure.
func (n *Node) spawnRemote(dest int, entry, arg uint32, done func(tid uint32)) {
	pack := func(b *madeleine.Buffer) { b.PackU32(entry).PackU32(arg) }
	reply := func(r *madeleine.Buffer) { done(r.U32()) }
	if n.c.cfg.RPCTimeout == 0 {
		n.ep.Call(dest, chSpawn, pack, reply)
		return
	}
	tried := 0
	var attempt func(d int)
	attempt = func(d int) {
		n.callRPC(d, chSpawn, pack, reply, func() {
			tried++
			next := n.c.nextSpawnFallback(d, n.id)
			if tried >= n.c.Nodes()-1 || next < 0 {
				done(0)
				return
			}
			attempt(next)
		}, nil)
	}
	attempt(dest)
}

// nextSpawnFallback returns the first rank after a timed-out spawn
// destination that is neither the requester, declared dead, nor
// suspected — the next candidate for the LRPC — or -1 when none
// remains.
func (c *Cluster) nextSpawnFallback(after, self int) int {
	for k := 1; k < c.Nodes(); k++ {
		cand := (after + k) % c.Nodes()
		if cand == self || !c.nodeAlive(cand) {
			continue
		}
		return cand
	}
	return -1
}
