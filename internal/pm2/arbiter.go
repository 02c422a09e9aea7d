package pm2

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/simtime"
)

// The negotiation arbiter (Config.Arbiter) is the concurrency scheme of
// the §4.4 protocol's step 2a. The paper funnels every negotiation
// through one system-wide critical section hosted on node 0; with the
// gather payload already cut (Config.Gather), that single lock is the
// remaining serialization point. The sharded arbiter relaxes it: the
// slot space is partitioned into contiguous shards (core.ShardMap),
// shard s arbitrated by rank s mod n. A negotiation gathers and plans
// without any lock, then takes only the shards its planned run touches
// — in ascending shard order, so no cycle of waiters can form — buys,
// and releases. Disjoint negotiations hold disjoint shard sets and
// proceed in parallel.
//
// A sharded negotiation that exhausts its rounds does not give up: it
// escalates once, taking every shard in the same ascending order, and
// re-runs its round budget on a view no other negotiation can change —
// the global lock's guarantee, reached only when contention demands it
// (see escalate).
//
// A node still runs its *own* negotiations one at a time (a local queue
// replaces the global one), which keeps the give-back accounting and
// retry invariants intact; the parallelism is across initiators, which
// is where the contention was.

// ArbiterMode selects the negotiation concurrency scheme.
type ArbiterMode int

const (
	// ArbiterGlobal is the paper-faithful default: one system-wide
	// critical section hosted on node 0. Every golden trace pins it.
	ArbiterGlobal ArbiterMode = iota
	// ArbiterSharded partitions the slot space into shards arbitrated
	// by rank shard mod n; a negotiation locks only the shards its
	// planned purchase touches, in canonical ascending order.
	ArbiterSharded
)

func (a ArbiterMode) String() string {
	if a == ArbiterSharded {
		return "sharded"
	}
	return "global"
}

// ParseArbiterMode resolves an arbiter name. Empty selects the
// paper-faithful global lock.
func ParseArbiterMode(s string) (ArbiterMode, error) {
	switch s {
	case "", "global", "lock":
		return ArbiterGlobal, nil
	case "sharded", "shard":
		return ArbiterSharded, nil
	}
	return ArbiterGlobal, fmt.Errorf("pm2: unknown arbiter %q (have %v)", s, ArbiterModeNames())
}

// ArbiterModeNames lists the canonical arbiter names.
func ArbiterModeNames() []string { return []string{"global", "sharded"} }

// arbiterShards partitions the 57344-slot space into 3584-slot
// shards: fine enough that initiators planning in distinct home regions
// lock disjoint managers, coarse enough that a multi-slot run almost
// always stays inside one shard.
const arbiterShards = 16

// negotiationBackoffBase is the first retry's deterministic delay; each
// further attempt doubles it. Two sharded initiators whose runs
// collided re-plan at different virtual times instead of re-colliding
// in lockstep, and attempt counts stay reproducible run to run.
const negotiationBackoffBase = 25 * simtime.Microsecond

// negotiationBackoff returns the deterministic delay before re-running
// a declined round: 25 µs doubling per attempt.
func negotiationBackoff(round int) simtime.Time {
	return negotiationBackoffBase << uint(round)
}

// startLocalNegotiation runs fn now, or queues it behind this node's
// negotiation in flight. The sharded arbiter drops the global queue on
// node 0; this local queue preserves the invariant the retry path
// relies on — one negotiation per node at a time, so give-backs of one
// round can never interleave with another round's gather.
func (n *Node) startLocalNegotiation(fn func()) {
	if n.negBusy {
		n.negQueue = append(n.negQueue, fn)
		return
	}
	n.negBusy = true
	fn()
}

// finishLocalNegotiation releases the local slot and starts the next
// queued negotiation, if any.
func (n *Node) finishLocalNegotiation() {
	if len(n.negQueue) > 0 {
		next := n.negQueue[0]
		n.negQueue = n.negQueue[:copy(n.negQueue, n.negQueue[1:])]
		next()
		return
	}
	n.negBusy = false
}

// homeOrigin returns where this node starts its run search under the
// sharded arbiter: the slot space divided into per-rank home regions.
// Concurrent initiators therefore plan in disjoint regions, and so lock
// disjoint shard sets, while the wrap-around keeps every slot reachable
// when a home region is exhausted.
func (n *Node) homeOrigin() int {
	return n.id * (layout.SlotCount / n.c.Nodes())
}

// escalate is a sharded negotiation's answer to round exhaustion: it
// takes every shard, in the ascending order withRunLocks always uses,
// and re-runs the round budget holding them. No other negotiation can
// buy a slot meanwhile, so the escalated rounds race only local
// allocations, as under the global lock. While escalated, withRunLocks
// is a pass-through and releaseRunLocks keeps the shards; negotiate
// releases them once, when the negotiation finishes.
func (n *Node) escalate(k int, done func(bool)) {
	n.withRunLocks(0, layout.SlotCount, func() {
		n.escalated = true
		n.negotiateRound(k, 0, done)
	}, func() { done(false) })
}

// withRunLocks acquires the shard locks covering the planned run and
// then calls then. Under the global arbiter, or while this node's
// negotiation holds every shard (escalate), it is a pass-through.
// Shards are acquired strictly one at a time in ascending order — the
// canonical order every initiator uses, which is the deadlock-freedom
// argument: the holder of the highest contended shard never waits on a
// lower one, so it completes and unblocks the rest.
//
// With a timeout configured, an unreachable shard manager fails the
// acquisition instead of hanging the negotiation: the shards already
// held are released and fail runs (the caller re-plans after a
// backoff). A grant that outruns the timeout is released the moment it
// arrives — a manager's lock must never be parked with a waiter that
// walked away.
func (n *Node) withRunLocks(start, count int, then, fail func()) {
	if n.c.cfg.Arbiter != ArbiterSharded || n.escalated {
		then()
		return
	}
	shards := n.c.shardMap.ShardsOfRun(start, count)
	var acquire func(i int)
	acquire = func(i int) {
		if i == len(shards) {
			then()
			return
		}
		s := shards[i]
		mgr := n.c.shardManager(s)
		n.callRPC(mgr, chShardLock, func(b *madeleine.Buffer) {
			b.PackU32(uint32(s))
		}, func(*madeleine.Buffer) {
			n.heldShards = append(n.heldShards, s)
			acquire(i + 1)
		}, func() {
			n.releaseRunLocks()
			fail()
		}, func(*madeleine.Buffer) {
			n.ep.Send(mgr, chShardUnlock, func(b *madeleine.Buffer) {
				b.PackU32(uint32(s))
			})
		})
	}
	acquire(0)
}

// releaseRunLocks releases every shard lock this node's negotiation
// holds (one-way, like the global unlock). No-op when none are held,
// and while escalated: an escalated negotiation keeps every shard until
// it finishes.
func (n *Node) releaseRunLocks() {
	if n.escalated {
		return
	}
	for _, s := range n.heldShards {
		shard := s
		n.ep.Send(n.c.shardManager(shard), chShardUnlock, func(b *madeleine.Buffer) {
			b.PackU32(uint32(shard))
		})
	}
	n.heldShards = n.heldShards[:0]
}

// onShardLockCall queues or grants one shard's lock (manager rank only).
func (n *Node) onShardLockCall(src int, req *madeleine.Call) {
	s := int(req.Msg.U32())
	if req.Msg.Err() != nil || s < 0 || s >= n.c.shardMap.Shards() {
		panic(fmt.Sprintf("pm2: corrupt shard-lock request for shard %d", s))
	}
	if n.c.shardManager(s) != n.id {
		panic(fmt.Sprintf("pm2: shard %d lock request at non-manager node %d", s, n.id))
	}
	if n.shardHeld == nil {
		n.shardHeld = make(map[int]bool)
		n.shardQueue = make(map[int][]*madeleine.Call)
	}
	if n.shardHeld[s] {
		n.shardQueue[s] = append(n.shardQueue[s], req)
		return
	}
	n.shardHeld[s] = true
	req.Reply(nil)
}

// onShardUnlockMsg releases one shard and grants the next waiter in
// FIFO order (manager rank only).
func (n *Node) onShardUnlockMsg(src int, msg *madeleine.Buffer) {
	s := int(msg.U32())
	if msg.Err() != nil || n.shardHeld == nil || !n.shardHeld[s] {
		panic(fmt.Sprintf("pm2: unlock of unheld shard %d at node %d", s, n.id))
	}
	if q := n.shardQueue[s]; len(q) > 0 {
		next := q[0]
		n.shardQueue[s] = q[:copy(q, q[1:])]
		next.Reply(nil)
		return
	}
	delete(n.shardHeld, s)
}
