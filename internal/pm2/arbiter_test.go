package pm2

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/layout"
	"repro/internal/progs"
	"repro/internal/simtime"
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

// TestParseArbiterMode: the two arbiters parse under their names and
// aliases; the removed optimistic arbiter's names are unknown.
func TestParseArbiterMode(t *testing.T) {
	if got := ArbiterModeNames(); !reflect.DeepEqual(got, []string{"global", "sharded"}) {
		t.Fatalf("ArbiterModeNames() = %v", got)
	}
	for name, want := range map[string]ArbiterMode{
		"": ArbiterGlobal, "global": ArbiterGlobal, "lock": ArbiterGlobal,
		"sharded": ArbiterSharded, "shard": ArbiterSharded,
	} {
		if got, err := ParseArbiterMode(name); err != nil || got != want {
			t.Errorf("ParseArbiterMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"optimistic", "opt", "occ"} {
		if _, err := ParseArbiterMode(name); err == nil || !strings.Contains(err.Error(), "unknown arbiter") {
			t.Errorf("ParseArbiterMode(%q): error = %v, want unknown arbiter", name, err)
		}
	}
}

// TestArbitersAgreeOnSingleInitiatorOutcome: with a single initiator and
// a quiet cluster there is nothing to arbitrate, so the sharded scheme
// must reach byte-identical final slot ownership to the paper's global
// lock — the arbiter changes who may negotiate concurrently, never what
// a lone negotiation buys.
func TestArbitersAgreeOnSingleInitiatorOutcome(t *testing.T) {
	for _, nodes := range []int{2, 4, 8} {
		for _, k := range []int{1, 2, 3, 5} {
			var want []string
			for _, arb := range []ArbiterMode{ArbiterGlobal, ArbiterSharded} {
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
	for _, arb := range []ArbiterMode{ArbiterGlobal, ArbiterSharded} {
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
				if err := c.CheckDrained(); err != nil {
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
			if sa.NegotiationRetries != sb.NegotiationRetries {
				t.Fatalf("%s: attempt counts not reproducible: %d vs %d retries",
					name, sa.NegotiationRetries, sb.NegotiationRetries)
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
	shardSize := (layout.SlotCount + arbiterShards - 1) / arbiterShards
	var order []int
	// Nodes 1..3 lock runs that all touch shard 2; node 0 locks a run in
	// shard 5. The shard-2 holders must serialize; shard 5 is independent.
	for _, id := range []int{1, 2, 3} {
		nid := id
		c.At(nid, func(n *Node) {
			g := &negotiation{n: n}
			g.withRunLocks(2*shardSize+10*nid, 5, func() {
				order = append(order, nid)
				n.unlockAll(&g.held)
			}, func() { panic("unexpected shard-lock failure") })
		})
	}
	c.At(0, func(n *Node) {
		g := &negotiation{n: n}
		g.withRunLocks(5*shardSize, 3, func() {
			order = append(order, 0)
			n.unlockAll(&g.held)
		}, func() { panic("unexpected shard-lock failure") })
	})
	c.Run(0)
	if len(order) != 4 {
		t.Fatalf("grants = %v, want all four negotiations granted", order)
	}
	if err := c.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestShardLockSpanningRuns: a run crossing a shard boundary takes both
// shards in ascending order, and a contender for either shard waits its
// turn — the canonical-order acquisition that makes the scheme
// deadlock-free even when lock sets overlap partially.
func TestShardLockSpanningRuns(t *testing.T) {
	c := New(Config{Nodes: 3, Arbiter: ArbiterSharded}, progs.NewImage())
	shardSize := (layout.SlotCount + arbiterShards - 1) / arbiterShards
	var order []int
	// Node 1 spans shards 3-4; node 2 spans shards 4-5: both need shard
	// 4, so they serialize despite distinct shard sets.
	c.At(1, func(n *Node) {
		g := &negotiation{n: n}
		g.withRunLocks(4*shardSize-2, 4, func() {
			order = append(order, 1)
			n.unlockAll(&g.held)
		}, func() { panic("unexpected shard-lock failure") })
	})
	c.At(2, func(n *Node) {
		g := &negotiation{n: n}
		g.withRunLocks(5*shardSize-2, 4, func() {
			order = append(order, 2)
			n.unlockAll(&g.held)
		}, func() { panic("unexpected shard-lock failure") })
	})
	c.Run(0)
	if len(order) != 2 {
		t.Fatalf("grants = %v, want both spanning negotiations granted", order)
	}
	if err := c.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestLocalNegotiationQueue: without the global lock, one node's own
// negotiations must still run one at a time — the second completes
// after the first, and both succeed.
func TestLocalNegotiationQueue(t *testing.T) {
	c := New(Config{Nodes: 4, Arbiter: ArbiterSharded}, progs.NewImage())
	var done []int
	c.At(0, func(n *Node) {
		n.negotiate(2, func(ok bool) {
			if !ok {
				t.Error("first negotiation failed")
			}
			done = append(done, 1)
		})
		n.negotiate(3, func(ok bool) {
			if !ok {
				t.Error("second negotiation failed")
			}
			done = append(done, 2)
		})
	})
	c.Run(0)
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("completion order %v, want [1 2]", done)
	}
	if err := c.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedNegotiationLeavesLatencyAlone: a negotiation's latency is
// stamped before the next one queued on its node starts, so the
// successor's start-up charges stay out of it. Node 0 negotiating 2
// slots on 4 nodes reads the same latency alone and with a second
// negotiation queued behind it.
func TestQueuedNegotiationLeavesLatencyAlone(t *testing.T) {
	latency := func(queued bool) simtime.Time {
		c := New(Config{Nodes: 4, Arbiter: ArbiterSharded}, progs.NewImage())
		c.At(0, func(n *Node) {
			n.negotiate(2, func(bool) {})
			if queued {
				n.negotiate(2, func(bool) {})
			}
		})
		c.Run(0)
		if err := c.CheckDrained(); err != nil {
			t.Fatal(err)
		}
		return c.Stats().NegotiationLatencies[0]
	}
	if alone, behind := latency(false), latency(true); alone != behind {
		t.Fatalf("latency %v alone, %v with a negotiation queued behind it", alone, behind)
	}
}

// TestDecentralizedArbitersAcrossGathers: every gather strategy composes
// with the sharded arbiter — concurrent initiators drain, invariants
// hold, ownership is conserved.
func TestDecentralizedArbitersAcrossGathers(t *testing.T) {
	for _, gather := range []GatherMode{GatherSequential, GatherTree, GatherDelta} {
		c := New(Config{Nodes: 8, Gather: gather, Arbiter: ArbiterSharded}, progs.NewImage())
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
			t.Fatalf("%s: %d of 8 negotiations succeeded", gather, succeeded)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", gather, err)
		}
		if err := c.CheckDrained(); err != nil {
			t.Fatalf("%s: %v", gather, err)
		}
		if got := freeSlotTotal(c); got != layout.SlotCount {
			t.Fatalf("%s: owned-free total %d, want %d", gather, got, layout.SlotCount)
		}
	}
}

// TestFindRunWrapsPastHomeOrigin: a negotiation that does not hold the
// whole slot space searches first fit from its node's home origin; the
// tail of the region under the origin is too short, so it takes the
// next region. With nothing past the origin it wraps back to slot 0,
// and reaches the origin's own region from its start. A holder of the
// whole space searches from slot 0.
func TestFindRunWrapsPastHomeOrigin(t *testing.T) {
	c := New(Config{Nodes: 4, Arbiter: ArbiterSharded}, progs.NewImage())
	g := &negotiation{n: c.Node(2)}
	origin := g.n.homeOrigin()
	global := bitmap.New(layout.SlotCount)
	global.SetRun(100, 2)
	global.SetRun(origin-2, 3)
	global.SetRun(origin+1000, 2)
	for _, step := range []struct {
		whole bool
		clear int
		want  int
	}{
		{false, -1, origin + 1000},
		{true, -1, 100},
		{false, origin + 1000, 100},
		{false, 100, origin - 2},
	} {
		if step.clear >= 0 {
			global.ClearRun(step.clear, 2)
		}
		g.whole = step.whole
		if got := g.findRun(global, 2); got != step.want {
			t.Fatalf("whole=%v, region at %d cleared: run at %d, want %d", step.whole, step.clear, got, step.want)
		}
	}
}

// TestShardedEscalationSucceedsWhereGlobalGivesUp: the seller, node 0,
// declines maxNegotiationRounds+1 purchases of node 1 and then accepts.
// The global arbiter has spent its budget and gives up; the sharded
// arbiter escalates, and its escalated rounds — holding every shard, in
// ascending order — buy the run. Holding the whole slot space, those
// rounds follow the paper: the declined one is re-issued at once, as
// under the global arbiter, with no backoff, and the run is planned
// first fit from slot 0, not from node 1's home origin. Both the
// per-map purchase (sequential gather) and the tree gather's range buy
// are covered. Every shard is released afterwards.
func TestShardedEscalationSucceedsWhereGlobalGivesUp(t *testing.T) {
	const shards = arbiterShards
	for _, gather := range []GatherMode{GatherSequential, GatherTree} {
		var globalGap simtime.Time
		for _, arb := range []ArbiterMode{ArbiterGlobal, ArbiterSharded} {
			c := New(Config{Nodes: 2, Gather: gather, Arbiter: arb}, progs.NewImage())
			n1 := c.Node(1)
			if n1.homeOrigin() == 0 {
				t.Fatal("node 1 searches from slot 0 anyway")
			}
			var asked []simtime.Time
			var heldAtAccept []int
			c.Node(0).buyHook = func(src int, giveBack bool) bool {
				if giveBack {
					return false
				}
				asked = append(asked, c.Now())
				if len(asked) <= maxNegotiationRounds+1 {
					return true
				}
				heldAtAccept = append([]int(nil), n1.neg.held...)
				return false
			}
			ok := negotiateSync(t, c, 1, 2)
			if arb == ArbiterGlobal {
				if ok || len(asked) != maxNegotiationRounds {
					t.Fatalf("%s global: ok=%v after %d purchases, want a failure after %d", gather, ok, len(asked), maxNegotiationRounds)
				}
				globalGap = asked[1] - asked[0]
				continue
			}
			if !ok {
				t.Fatalf("%s sharded: escalated negotiation failed", gather)
			}
			want := make([]int, shards)
			for i := range want {
				want[i] = i
			}
			if !reflect.DeepEqual(heldAtAccept, want) {
				t.Fatalf("%s sharded: shards held during the escalated round = %v, want %v", gather, heldAtAccept, want)
			}
			if gap := asked[maxNegotiationRounds+1] - asked[maxNegotiationRounds]; gap != globalGap {
				t.Fatalf("%s sharded: escalated retry asked again after %v, want %v (no backoff)", gather, gap, globalGap)
			}
			if !n1.Slots().Bitmap().Test(0) || c.Node(0).Slots().Bitmap().Test(0) {
				t.Fatalf("%s sharded: escalated purchase did not buy slot 0: planned away from first fit", gather)
			}
			if st := c.Stats(); st.NegotiationFailures != 0 || st.NegotiationRetries != maxNegotiationRounds+1 {
				t.Fatalf("%s sharded: failures=%d retries=%d, want 0/%d", gather, st.NegotiationFailures, st.NegotiationRetries, maxNegotiationRounds+1)
			}
			if err := c.CheckDrained(); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConcurrentEscalations: every node negotiates at once, and every
// purchase is declined until its initiator has escalated, so all of them
// exhaust their budget and contend for every shard at about the same
// time. The ascending acquisition order keeps that deadlock-free: every
// negotiation completes, no slot is minted or lost, and every shard
// ends released.
func TestConcurrentEscalations(t *testing.T) {
	const nodes = 8
	for _, gather := range []GatherMode{GatherSequential, GatherTree, GatherDelta} {
		c := New(Config{Nodes: nodes, Gather: gather, Arbiter: ArbiterSharded}, progs.NewImage())
		for i := 0; i < nodes; i++ {
			c.Node(i).buyHook = func(src int, giveBack bool) bool {
				return !giveBack && !c.Node(src).neg.whole
			}
		}
		succeeded := 0
		for i := 0; i < nodes; i++ {
			c.At(i, func(n *Node) {
				n.negotiate(3, func(ok bool) {
					if ok {
						succeeded++
					}
				})
			})
		}
		c.Run(0)
		if succeeded != nodes {
			t.Fatalf("%s: %d of %d escalating negotiations succeeded", gather, succeeded, nodes)
		}
		if st := c.Stats(); st.NegotiationRetries < nodes*maxNegotiationRounds {
			t.Fatalf("%s: %d retries, want every initiator to exhaust its %d rounds", gather, st.NegotiationRetries, maxNegotiationRounds)
		}
		if got := freeSlotTotal(c); got != layout.SlotCount {
			t.Fatalf("%s: owned-free total %d, want %d", gather, got, layout.SlotCount)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", gather, err)
		}
		if err := c.CheckDrained(); err != nil {
			t.Fatalf("%s: %v", gather, err)
		}
	}
}
