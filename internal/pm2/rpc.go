package pm2

import (
	"repro/internal/cost"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/simtime"
)

// The request/reply deadline layer (Config.RPCTimeout). The paper's
// protocol assumes a reliable interconnect: every Call blocks its
// continuation until the reply arrives, so a partition or a crashed
// peer hangs the initiator forever. With a timeout configured, every
// protocol exchange that awaits a remote reply is a call record with a
// zero-charge virtual-time timer on the initiator's own actor. A reply
// in time stops the timer; at expiry the initiator stops waiting,
// counts Stats.RPCTimeouts, and applies the call's policy (callKind).
//
// A partition-delayed *request* must not execute after its initiator
// timed out and moved on — a retried purchase would then apply twice —
// so deadline requests carry their expiry on the wire (madeleine
// kindCallDL) and the receiver discards late arrivals unanswered. A
// request that *did* execute, but whose reply outran the initiator's
// patience, leaves remote state behind: the record keeps receiving its
// late replies, and a claim compensates them.
//
// With RPCTimeout == 0 every exchange is the plain ep.Call — no record,
// no timer, no envelope change, byte-identical traces.

const (
	// rpcMaxAttempts bounds an idempotent request's tries: the initial
	// send plus retries, each preceded by a doubling backoff.
	rpcMaxAttempts = 3
	// rpcBackoffBase and rpcBackoffCap shape the deterministic retry
	// backoff: 25 µs doubling per retry, as negotiationBackoff, capped.
	rpcBackoffBase = 25 * simtime.Microsecond
	rpcBackoffCap  = 400 * simtime.Microsecond
)

// DefaultRPCTimeout derives the timeout from the cost model: twice the
// round trip of a small request shipping a full bitmap back, so a
// healthy reply beats the timer with margin while a partitioned peer
// is abandoned within a few round trips.
func DefaultRPCTimeout(m *cost.Model) simtime.Time {
	return 2 * m.RoundTrip(128, layout.BitmapBytes)
}

// callKind is a call's policy at expiry and for late replies.
type callKind uint8

const (
	// gatherCall is an idempotent bitmap read: it backs off and
	// retries, then misses — the caller plans without that peer.
	gatherCall callKind = iota
	// spawnCall moves on to the next live, unsuspected rank; once none
	// is left the caller gets tid 0, like a local creation failure.
	spawnCall
	// claimCall is a purchase or a lock: expiry fails it, and
	// the late handler undoes a late grant. Other kinds drop late replies.
	claimCall
	// giveBackCall reads expiry as acknowledged.
	giveBackCall
)

// call is one deadline-guarded remote exchange, across all its
// attempts. It is the madeleine.Waiter of every request it sends.
type call struct {
	n    *Node
	kind callKind
	dst  int
	ch   uint32
	// patience is the deadline of one attempt; 0 means RPCTimeout.
	patience simtime.Time
	tries    int
	// id is the request of the attempt in flight, 0 while none is: a
	// reply to any other id is late.
	id    uint32
	timer simtime.Timer
	// fire is c.onTimer, bound once. reuse marks a record a node keeps
	// across rounds (the delta gather's per-peer calls).
	fire    func()
	reuse   bool
	build   func(*madeleine.Buffer)
	reply   func(*madeleine.Buffer)
	timeout func()
	late    func(*madeleine.Buffer)
}

// exchange issues a fresh call; with RPCTimeout 0 it builds no record.
func (n *Node) exchange(c call) {
	if n.c.cfg.RPCTimeout == 0 {
		n.ep.Call(c.dst, c.ch, c.build, c.reply)
		return
	}
	rec := c
	rec.n = n
	rec.start()
}

// start issues the first attempt of a fresh or resolved record.
func (c *call) start() {
	n := c.n
	if n.c.cfg.RPCTimeout == 0 {
		n.ep.Call(c.dst, c.ch, c.build, c.reply)
		return
	}
	if c.patience == 0 {
		c.patience = n.c.cfg.RPCTimeout
	}
	if c.fire == nil {
		c.fire = c.onTimer
	}
	n.calls++
	c.tries = 0
	c.send()
}

func (c *call) send() {
	n := c.n
	c.tries++
	deadline := n.actor.Now() + c.patience
	c.id = n.ep.CallDL(c.dst, c.ch, deadline, c.build, c)
	c.timer = n.actor.PostTimer(deadline, c.fire)
}

// Reply implements madeleine.Waiter: the attempt in flight answers the
// call and stops its timer; any other reply is late.
func (c *call) Reply(id uint32, msg *madeleine.Buffer) {
	if id != c.id {
		if c.kind == claimCall {
			c.late(msg)
		}
		return
	}
	c.id = 0
	c.timer.Stop()
	reply := c.reply
	c.resolve()
	reply(msg)
}

// resolve ends a waiting call. The endpoint still maps the requests of
// expired attempts to the record, for late replies that may never come,
// so a one-off record lets go of the closures it no longer needs.
func (c *call) resolve() {
	c.n.calls--
	if !c.reuse {
		c.build, c.reply, c.timeout = nil, nil, nil
	}
}

// onTimer runs at an attempt's deadline, or sends a gather's retry when
// its backoff ends (no attempt in flight).
func (c *call) onTimer() {
	if c.id == 0 {
		c.send()
		return
	}
	n := c.n
	c.id = 0
	n.c.stats.RPCTimeouts++
	switch c.kind {
	case gatherCall:
		if c.tries < rpcMaxAttempts {
			backoff := min(rpcBackoffBase<<uint(c.tries-1), rpcBackoffCap)
			c.timer = n.actor.PostTimer(n.actor.Now()+backoff, c.fire)
			return
		}
	case spawnCall:
		// Fall back to the next rank after this one that is neither us
		// nor dead or suspected, trying at most every other rank once.
		for k, nodes := 1, n.c.Nodes(); k < nodes && c.tries < nodes-1; k++ {
			if next := (c.dst + k) % nodes; next != n.id && n.c.nodeAlive(next) {
				c.dst = next
				c.send()
				return
			}
		}
	}
	timeout := c.timeout
	c.resolve()
	timeout()
}

// lockPatience is the deadline for taking the system-wide section.
// A lock request legitimately queues: up to Nodes-1 earlier holders may
// each burn Nodes × rpcMaxAttempts gather deadlines routing around
// unreachable peers, so the flat deadline would read contention as a
// dead manager. Quadratic in the cluster size, the wait stays bounded.
func (n *Node) lockPatience() simtime.Time {
	nodes := simtime.Time(n.c.Nodes())
	return n.c.cfg.RPCTimeout * rpcMaxAttempts * nodes * nodes
}

// spawnRemote issues the remote thread-creation LRPC; done gets the new
// thread's tid, or 0 once a timed-out spawn ran out of live ranks.
func (n *Node) spawnRemote(dest int, entry, arg uint32, done func(tid uint32)) {
	n.exchange(call{kind: spawnCall, dst: dest, ch: chSpawn,
		build:   func(b *madeleine.Buffer) { b.PackU32(entry).PackU32(arg) },
		reply:   func(r *madeleine.Buffer) { done(r.U32()) },
		timeout: func() { done(0) }})
}
