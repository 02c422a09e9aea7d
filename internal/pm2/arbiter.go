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
// A sharded negotiation that exhausts its rounds, or whose lock-free
// view shows no run, escalates once: it takes every shard in the same
// order and re-runs its round budget on a view no other negotiation can
// change. The global arbiter is that escalated state from the first
// round. Either way negotiation.whole marks a holder of the whole slot
// space (the keys Cluster.whole lists), which a defragmentation takes
// too. A whole holder races no other negotiation, so it plans the
// paper's way: first fit from slot 0, a strict split of the run among
// its owners, and an immediate retry. Any other negotiation searches
// from its home origin, splits loosely and backs off (negotiate.go).
// Beyond that, the arbiters differ only at the entry: a global
// negotiation takes the section first, a sharded one queues behind its
// node's running negotiation (Node.neg, Node.negWaiting); the
// parallelism is across initiators.

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

// The lock service: every manager rank keeps one FIFO lock table
// (Node.locks). Shard s is key s, on chShardLock/chShardUnlock; the
// system-wide section is sectionKey, managed by node 0 on chLock/chUnlock.

// sectionKey is the lock-table key of the system-wide critical section.
const sectionKey = arbiterShards

// lockEntry is a held key in a manager's lock table: the holder rank
// and the waiters queued behind it, in arrival order.
type lockEntry struct {
	holder  int
	waiters []*madeleine.Call
}

// grant takes key for req's sender, or queues req behind the holder. A
// request from a declared-dead rank (sent before its crash, delivered
// after) is answered, so its call is released, but takes nothing: the
// reply is dropped at the wire and the rank could never unlock.
func (n *Node) grant(key int, req *madeleine.Call) {
	if n.c.NodeDown(req.Src()) {
		req.Reply(nil)
		return
	}
	if e, held := n.locks[key]; held {
		e.waiters = append(e.waiters, req)
		return
	}
	n.hold(key, req.Src())
	req.Reply(nil)
}

// hold enters key in the lock table, held by holder and with no waiters.
func (n *Node) hold(key, holder int) {
	if n.locks == nil {
		n.locks = make(map[int]*lockEntry)
	}
	n.locks[key] = &lockEntry{holder: holder}
}

// release hands key to its first waiter from a rank not declared dead,
// or frees it. A dead waiter is answered, so its call is released, and
// passed over: the reply is dropped at the wire, and a key handed to it
// would be held by no one.
func (n *Node) release(key int) {
	e := n.locks[key]
	for len(e.waiters) > 0 {
		w := e.waiters[0]
		e.waiters = e.waiters[1:]
		w.Reply(nil)
		if !n.c.NodeDown(w.Src()) {
			e.holder = w.Src()
			return
		}
	}
	delete(n.locks, key)
}

// unlockFrom releases key on src's unlock, and reports false if src
// does not hold key here. An unlock from a declared-dead rank is
// dropped: rerouteLocks released what that rank held, and an unlock it
// sent before its crash may arrive after the key was handed on.
func (n *Node) unlockFrom(src, key int) bool {
	if n.c.NodeDown(src) {
		return true
	}
	if e, held := n.locks[key]; !held || e.holder != src {
		return false
	}
	n.release(key)
	return true
}

// lockManager returns the live manager rank of key: node 0 for the
// section; for a shard, its shard-mod-n owner, rerouted past
// declared-dead ranks so the sharded arbiter survives a failover.
func (c *Cluster) lockManager(key int) int {
	if key == sectionKey {
		return 0
	}
	m := c.shardMap.Manager(key, c.Nodes())
	if c.down != nil && c.down[m] {
		m = c.pol.NextLive(m)
	}
	return m
}

// lock claims key at its manager: granted runs once this node holds
// it, timedOut if it was not granted by the deadline. The node records
// the granting rank, and unlockAll unlocks there even if lockManager has
// since rerouted the key. A late grant is unlocked at once at the
// manager that granted it.
func (n *Node) lock(key int, granted, timedOut func()) {
	mgr := n.c.lockManager(key)
	c := call{kind: claimCall, dst: mgr, ch: chShardLock,
		build: func(b *madeleine.Buffer) { b.PackU32(uint32(key)) },
		reply: func(*madeleine.Buffer) {
			if n.grantedBy == nil {
				n.grantedBy = make(map[int]int)
			}
			n.grantedBy[key] = mgr
			granted()
		},
		timeout: timedOut,
		late:    func(*madeleine.Buffer) { n.unlock(mgr, key) }}
	if key == sectionKey {
		c.ch, c.build, c.patience = chLock, nil, n.lockPatience()
	}
	n.exchange(c)
}

// lockEach takes keys one at a time, in ascending order, appending each
// to *held as it is granted, then calls then. Every holder uses this
// canonical order, which is the deadlock-freedom argument: the holder of
// the highest contended key never waits on a lower one, so it completes
// and unblocks the rest. A manager that misses its deadline fails the
// acquisition: every key in *held is unlocked and fail runs.
func (n *Node) lockEach(keys []int, held *[]int, then, fail func()) {
	if len(keys) == 0 {
		then()
		return
	}
	n.lock(keys[0], func() {
		*held = append(*held, keys[0])
		n.lockEach(keys[1:], held, then, fail)
	}, func() {
		n.unlockAll(held)
		fail()
	})
}

// unlockAll unlocks every key in *held at the manager that granted it
// (one-way) and empties *held.
func (n *Node) unlockAll(held *[]int) {
	for _, key := range *held {
		mgr := n.grantedBy[key]
		delete(n.grantedBy, key)
		n.unlock(mgr, key)
	}
	*held = (*held)[:0]
}

// unlock releases key at its manager mgr (one-way). An unlock addressed
// to a declared-dead rank is dropped: its table went with it.
func (n *Node) unlock(mgr, key int) {
	if n.c.NodeDown(mgr) {
		return
	}
	if key == sectionKey {
		n.ep.Send(mgr, chUnlock, nil)
		return
	}
	n.ep.Send(mgr, chShardUnlock, func(b *madeleine.Buffer) { b.PackU32(uint32(key)) })
}

// rerouteLocks hands declared-dead rank d's locks over. Its own table
// is cleared, and every key a survivor holds from d is seeded, held by
// that survivor, at the key's new manager (lockManager now routes past
// d), before anyone else can be granted it there. The survivor unlocks
// it there too. Every key d holds at a live manager is released there,
// on the manager's actor and in key order, if d still holds it then:
// d's own unlock is dropped at the wire, or by unlockFrom if it arrives
// after now. d's waiters time out at their deadlines. Node 0
// cannot crash, so only shard keys move. Runs outside any node's
// handler.
func (c *Cluster) rerouteLocks(d *Node) {
	d.locks = nil
	for _, n := range c.nodes {
		for key, mgr := range n.grantedBy {
			if mgr != d.id || c.NodeDown(n.id) {
				continue
			}
			m := c.nodes[c.lockManager(key)]
			if _, held := m.locks[key]; held {
				panic(fmt.Sprintf("pm2: rerouted key %d already held at node %d", key, m.id))
			}
			m.hold(key, n.id)
			n.grantedBy[key] = m.id
		}
	}
	for _, m := range c.nodes {
		var keys []int
		for key := 0; key <= sectionKey && !c.NodeDown(m.id); key++ {
			if e, held := m.locks[key]; held && e.holder == d.id {
				keys = append(keys, key)
			}
		}
		if len(keys) > 0 {
			c.At(m.id, func(m *Node) {
				for _, key := range keys {
					if e, held := m.locks[key]; held && e.holder == d.id {
						m.release(key)
					}
				}
			})
		}
	}
}

// onLockCall queues or grants the system-wide section (node 0 only).
func (n *Node) onLockCall(src int, req *madeleine.Call) {
	if n.id != 0 {
		panic("pm2: lock request at non-manager node")
	}
	n.grant(sectionKey, req)
}

// onUnlockMsg releases the section to its next waiter (node 0 only).
func (n *Node) onUnlockMsg(src int, _ *madeleine.Buffer) {
	if !n.unlockFrom(src, sectionKey) {
		panic(fmt.Sprintf("pm2: section unlock from non-holder %d", src))
	}
}

// onShardLockCall queues or grants one shard (manager rank only).
func (n *Node) onShardLockCall(src int, req *madeleine.Call) {
	s := int(req.Msg.U32())
	if req.Msg.Err() != nil || s < 0 || s >= n.c.shardMap.Shards() {
		panic(fmt.Sprintf("pm2: corrupt shard-lock request for shard %d", s))
	}
	if n.c.lockManager(s) != n.id {
		panic(fmt.Sprintf("pm2: shard %d lock request at non-manager node %d", s, n.id))
	}
	n.grant(s, req)
}

// onShardUnlockMsg releases one shard to its next waiter (manager rank
// only).
func (n *Node) onShardUnlockMsg(src int, msg *madeleine.Buffer) {
	s := int(msg.U32())
	if msg.Err() != nil || s >= n.c.shardMap.Shards() || !n.unlockFrom(src, s) {
		panic(fmt.Sprintf("pm2: unlock of shard %d at node %d from non-holder %d", s, n.id, src))
	}
}

// homeOrigin returns where this node starts a run search that does not
// hold the whole slot space: the slot space divided into per-rank home
// regions.
// Concurrent initiators therefore plan in disjoint regions, and so lock
// disjoint shard sets, while the wrap-around keeps every slot reachable
// when a home region is exhausted.
func (n *Node) homeOrigin() int {
	return n.id * (layout.SlotCount / n.c.Nodes())
}

// escalate takes the whole slot space and re-runs the round budget
// holding it: no other negotiation or defragmentation can change the
// space meanwhile, so the escalated rounds race only local allocations.
func (g *negotiation) escalate() {
	g.n.lockEach(g.n.c.whole, &g.held, func() {
		g.whole = true
		g.round = 0
		g.run()
	}, func() { g.finish(false) })
}

// withRunLocks takes the shards covering the planned run and then calls
// then, or fail if a shard manager is unreachable (see lockEach). A
// holder of the whole slot space passes straight through.
func (g *negotiation) withRunLocks(start, count int, then, fail func()) {
	if g.whole {
		then()
		return
	}
	g.n.lockEach(g.n.c.shardMap.ShardsOfRun(start, count), &g.held, then, fail)
}
