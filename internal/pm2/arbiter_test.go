package pm2

import (
	"fmt"
	"testing"

	"repro/internal/layout"
	"repro/internal/progs"
)

// ownershipFingerprint captures every node's slot bitmap.
func ownershipFingerprint(c *Cluster) []string {
	var out []string
	for i := 0; i < c.Nodes(); i++ {
		out = append(out, string(c.Node(i).Slots().Bitmap().Bytes()))
	}
	return out
}

// freeSlotTotal sums the owned-free slots across the cluster; a
// negotiation only moves ownership, so the total must stay SlotCount.
func freeSlotTotal(c *Cluster) int {
	total := 0
	for i := 0; i < c.Nodes(); i++ {
		total += c.Node(i).Slots().Bitmap().Count()
	}
	return total
}

// TestArbitersAgreeOnSingleInitiatorOutcome: with a single initiator and
// a quiet cluster there is nothing to arbitrate, so the sharded and
// optimistic schemes must reach byte-identical final slot ownership to
// the paper's global lock — the arbiter changes who may negotiate
// concurrently, never what a lone negotiation buys.
func TestArbitersAgreeOnSingleInitiatorOutcome(t *testing.T) {
	for _, nodes := range []int{2, 4, 8} {
		for _, k := range []int{1, 2, 3, 5} {
			var want []string
			for _, arb := range []ArbiterMode{ArbiterGlobal, ArbiterSharded, ArbiterOptimistic} {
				name := fmt.Sprintf("n%d/k%d/%s", nodes, k, arb)
				c := New(Config{Nodes: nodes, Arbiter: arb}, progs.NewImage())
				if !negotiateSync(t, c, 0, k) {
					t.Fatalf("%s: negotiation failed", name)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := ownershipFingerprint(c)
				if want == nil {
					want = got
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: node %d ownership differs from the global-arbiter outcome", name, i)
					}
				}
			}
		}
	}
}

// TestConcurrentInitiatorsUnderDecentralizedArbiters: every node starts
// a multi-slot negotiation in the same instant. Under each arbiter, all
// of them must complete, no slot may end up owned-free by two nodes,
// and the owned-free total must be conserved (a negotiation moves
// ownership, it never mints or leaks slots). Two identical runs must
// agree byte-for-byte — the deterministic-backoff guarantee.
func TestConcurrentInitiatorsUnderDecentralizedArbiters(t *testing.T) {
	for _, arb := range []ArbiterMode{ArbiterGlobal, ArbiterSharded, ArbiterOptimistic} {
		for _, nodes := range []int{4, 16} {
			name := fmt.Sprintf("%s/n%d", arb, nodes)
			run := func() ([]string, Stats) {
				c := New(Config{Nodes: nodes, Arbiter: arb}, progs.NewImage())
				succeeded := 0
				for i := 0; i < nodes; i++ {
					id := i
					c.At(id, func(n *Node) {
						n.negotiate(3, func(ok bool) {
							if ok {
								succeeded++
							}
						})
					})
				}
				c.Run(0)
				if succeeded != nodes {
					t.Fatalf("%s: %d of %d concurrent negotiations succeeded", name, succeeded, nodes)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := freeSlotTotal(c); got != layout.SlotCount {
					t.Fatalf("%s: owned-free total %d, want %d", name, got, layout.SlotCount)
				}
				return ownershipFingerprint(c), c.Stats()
			}
			a, sa := run()
			b, sb := run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: two identical concurrent runs diverged at node %d", name, i)
				}
			}
			if sa.NegotiationRetries != sb.NegotiationRetries || sa.VersionDeclines != sb.VersionDeclines {
				t.Fatalf("%s: attempt counts not reproducible: %d/%d vs %d/%d retries/declines",
					name, sa.NegotiationRetries, sa.VersionDeclines, sb.NegotiationRetries, sb.VersionDeclines)
			}
		}
	}
}

// TestShardLocksSerializeOverlappingRuns: overlapping runs share a
// shard, so their lock sets intersect and the purchases serialize;
// disjoint home regions lock disjoint shards and overlap in time. The
// test drives the lock layer directly: every acquisition must be
// granted exactly once, in FIFO order per shard, and the managers must
// end idle.
func TestShardLocksSerializeOverlappingRuns(t *testing.T) {
	c := New(Config{Nodes: 4, Arbiter: ArbiterSharded}, progs.NewImage())
	shardSize := (layout.SlotCount + defaultArbiterShards - 1) / defaultArbiterShards
	var order []int
	// Nodes 1..3 lock runs that all touch shard 2; node 0 locks a run in
	// shard 5. The shard-2 holders must serialize; shard 5 is independent.
	for _, id := range []int{1, 2, 3} {
		nid := id
		c.At(nid, func(n *Node) {
			n.withRunLocks(2*shardSize+10*nid, 5, func() {
				order = append(order, nid)
				n.releaseRunLocks()
			}, func() { panic("unexpected shard-lock failure") })
		})
	}
	c.At(0, func(n *Node) {
		n.withRunLocks(5*shardSize, 3, func() {
			order = append(order, 0)
			n.releaseRunLocks()
		}, func() { panic("unexpected shard-lock failure") })
	})
	c.Run(0)
	if len(order) != 4 {
		t.Fatalf("grants = %v, want all four negotiations granted", order)
	}
	for i := 0; i < c.Nodes(); i++ {
		n := c.Node(i)
		if len(n.heldShards) != 0 {
			t.Fatalf("node %d still holds shards %v", i, n.heldShards)
		}
		for s, held := range n.shardHeld {
			if held {
				t.Fatalf("manager %d still marks shard %d held", i, s)
			}
		}
	}
}

// TestShardLockSpanningRuns: a run crossing a shard boundary takes both
// shards in ascending order, and a contender for either shard waits its
// turn — the canonical-order acquisition that makes the scheme
// deadlock-free even when lock sets overlap partially.
func TestShardLockSpanningRuns(t *testing.T) {
	c := New(Config{Nodes: 3, Arbiter: ArbiterSharded}, progs.NewImage())
	shardSize := (layout.SlotCount + defaultArbiterShards - 1) / defaultArbiterShards
	var order []int
	// Node 1 spans shards 3-4; node 2 spans shards 4-5: both need shard
	// 4, so they serialize despite distinct shard sets.
	c.At(1, func(n *Node) {
		n.withRunLocks(4*shardSize-2, 4, func() {
			order = append(order, 1)
			n.releaseRunLocks()
		}, func() { panic("unexpected shard-lock failure") })
	})
	c.At(2, func(n *Node) {
		n.withRunLocks(5*shardSize-2, 4, func() {
			order = append(order, 2)
			n.releaseRunLocks()
		}, func() { panic("unexpected shard-lock failure") })
	})
	c.Run(0)
	if len(order) != 2 {
		t.Fatalf("grants = %v, want both spanning negotiations granted", order)
	}
}

// TestOptimisticVersionDecline: a seller whose bitmap mutated near the
// requested run between the gather and the purchase declines the stale,
// version-stamped plan; the initiator backs off, re-plans on a fresh
// view and succeeds. A mutation in a far-away bitmap word must NOT
// decline — the journal's dirty words scope the validation. The
// conflict is visible in Stats.VersionDeclines and the attempt count is
// identical across reruns.
func TestOptimisticVersionDecline(t *testing.T) {
	// Initiator 0 plans run [0,3): node 1 sells slot 1, which lives in
	// bitmap word 0. raceSlot 5 (also word 0, owned free by node 1 under
	// 4-node round-robin) collides; a slot in the last word does not.
	run := func(raceSlot int) Stats {
		c := New(Config{Nodes: 4, Arbiter: ArbiterOptimistic}, progs.NewImage())
		fired := false
		n1 := c.Node(1)
		n1.buyHook = func(src int, giveBack bool) bool {
			if !giveBack && !fired {
				fired = true
				// A local allocation lands after the gather: the journal
				// version moves before the purchase is served.
				if err := n1.slots.AcquireAt(raceSlot, 1); err != nil {
					t.Errorf("racing allocation: %v", err)
				}
			}
			return false
		}
		if !negotiateSync(t, c, 0, 3) {
			t.Fatal("negotiation failed after the version decline")
		}
		if !fired {
			t.Fatal("the racing allocation never ran")
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return c.Stats()
	}
	st := run(5)
	if st.VersionDeclines == 0 {
		t.Fatal("stale plan overlapping the mutated word was not declined")
	}
	if st.NegotiationRetries == 0 {
		t.Fatal("version decline did not register a retry")
	}
	st2 := run(5)
	if st.NegotiationRetries != st2.NegotiationRetries || st.VersionDeclines != st2.VersionDeclines {
		t.Fatalf("attempt counts not reproducible: %d/%d vs %d/%d",
			st.NegotiationRetries, st.VersionDeclines, st2.NegotiationRetries, st2.VersionDeclines)
	}
	// A mutation in the last bitmap word is disjoint from the plan: the
	// version moved, but the purchase must still be honored.
	far := run(layout.SlotCount - 3) // owned by node 1: (57344-3) % 4 == 1
	if far.VersionDeclines != 0 {
		t.Fatalf("disjoint mutation declined %d purchase(s) — validation not word-scoped", far.VersionDeclines)
	}
	if far.NegotiationRetries != 0 {
		t.Fatalf("disjoint mutation caused %d retries", far.NegotiationRetries)
	}
}

// TestLocalNegotiationQueue: without the global lock, one node's own
// negotiations must still run one at a time — the second completes
// after the first, and both succeed.
func TestLocalNegotiationQueue(t *testing.T) {
	for _, arb := range []ArbiterMode{ArbiterSharded, ArbiterOptimistic} {
		c := New(Config{Nodes: 4, Arbiter: arb}, progs.NewImage())
		var done []int
		c.At(0, func(n *Node) {
			n.negotiate(2, func(ok bool) {
				if !ok {
					t.Errorf("%s: first negotiation failed", arb)
				}
				done = append(done, 1)
			})
			n.negotiate(3, func(ok bool) {
				if !ok {
					t.Errorf("%s: second negotiation failed", arb)
				}
				done = append(done, 2)
			})
		})
		c.Run(0)
		if len(done) != 2 || done[0] != 1 || done[1] != 2 {
			t.Fatalf("%s: completion order %v, want [1 2]", arb, done)
		}
		n0 := c.Node(0)
		if n0.negBusy || len(n0.negQueue) != 0 {
			t.Fatalf("%s: local queue not drained: busy=%v queue=%d", arb, n0.negBusy, len(n0.negQueue))
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", arb, err)
		}
	}
}

// TestDecentralizedArbitersAcrossGathers: every gather strategy composes
// with every arbiter — concurrent initiators drain, invariants hold,
// ownership is conserved.
func TestDecentralizedArbitersAcrossGathers(t *testing.T) {
	for _, gather := range []GatherMode{GatherSequential, GatherTree, GatherDelta} {
		for _, arb := range []ArbiterMode{ArbiterSharded, ArbiterOptimistic} {
			name := fmt.Sprintf("%s/%s", gather, arb)
			c := New(Config{Nodes: 8, Gather: gather, Arbiter: arb}, progs.NewImage())
			succeeded := 0
			for i := 0; i < 8; i++ {
				id := i
				c.At(id, func(n *Node) {
					n.negotiate(2, func(ok bool) {
						if ok {
							succeeded++
						}
					})
				})
			}
			c.Run(0)
			if succeeded != 8 {
				t.Fatalf("%s: %d of 8 negotiations succeeded", name, succeeded)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := freeSlotTotal(c); got != layout.SlotCount {
				t.Fatalf("%s: owned-free total %d, want %d", name, got, layout.SlotCount)
			}
		}
	}
}
