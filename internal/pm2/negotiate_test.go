package pm2

import (
	"testing"

	"repro/internal/progs"
	"repro/internal/simtime"
)

// negotiateSync drives one direct negotiation for k slots on node id and
// returns its outcome.
func negotiateSync(t *testing.T, c *Cluster, id, k int) bool {
	t.Helper()
	ok, fired := false, false
	c.At(id, func(n *Node) {
		n.negotiate(k, func(got bool) {
			ok, fired = got, true
		})
	})
	c.Run(0)
	if !fired {
		t.Fatal("negotiation never completed")
	}
	if err := c.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestGatherStrategiesAgreeOnOutcome: one quiet negotiation must end in
// the same cluster-wide slot ownership under every gather strategy — the
// strategies change what the gather costs, never what it buys.
func TestGatherStrategiesAgreeOnOutcome(t *testing.T) {
	var want []string
	for _, gather := range []GatherMode{GatherSequential, GatherTree, GatherDelta} {
		c := New(Config{Nodes: 4, Gather: gather}, progs.NewImage())
		if !negotiateSync(t, c, 0, 3) {
			t.Fatalf("%s: negotiation failed", gather)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", gather, err)
		}
		var got []string
		for i := 0; i < c.Nodes(); i++ {
			got = append(got, string(c.Node(i).Slots().Bitmap().Bytes()))
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: node %d ownership differs from sequential outcome", gather, i)
			}
		}
	}
}

// TestGatherStrategiesScaleBelowSequential pins the point of the whole
// exercise: at 16 nodes, one negotiation under the tree or delta gather
// must cost measurably less virtual time than the paper's sequential
// gather (whose +165 µs/node slope is the figure being attacked).
func TestGatherStrategiesScaleBelowSequential(t *testing.T) {
	lat := func(gather GatherMode) simtime.Time {
		c := New(Config{Nodes: 16, Gather: gather}, progs.NewImage())
		if !negotiateSync(t, c, 0, 3) {
			t.Fatalf("%s: negotiation failed", gather)
		}
		st := c.Stats()
		if st.Negotiations != 1 {
			t.Fatalf("%s: %d negotiations", gather, st.Negotiations)
		}
		return st.NegotiationLatencies[0]
	}
	seq, tree := lat(GatherSequential), lat(GatherTree)
	if tree*2 >= seq {
		t.Errorf("tree gather %v not well below sequential %v", tree, seq)
	}
	// A cold delta gather ships full maps (first contact), but overlaps
	// their wire time — still far below sequential.
	if delta := lat(GatherDelta); delta*2 >= seq {
		t.Errorf("delta gather %v not well below sequential %v", delta, seq)
	}
}

// TestTreeTopology: the binomial combining tree must partition the
// cluster — every rank reachable from the root exactly once, and each
// child's advertised subtree matching what recursion actually visits.
func TestTreeTopology(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 64} {
		for _, root := range []int{0, n / 2, n - 1} {
			seen := make(map[int]int)
			var walk func(node int)
			walk = func(node int) {
				seen[node]++
				for _, ch := range treeChildren(node, root, n) {
					walk(ch)
				}
			}
			walk(root)
			if len(seen) != n {
				t.Fatalf("n=%d root=%d: tree reaches %d ranks", n, root, len(seen))
			}
			for r, k := range seen {
				if k != 1 {
					t.Fatalf("n=%d root=%d: rank %d visited %d times", n, root, r, k)
				}
			}
			for _, ch := range treeChildren(root, root, n) {
				sub := make(map[int]bool)
				var collect func(node int)
				collect = func(node int) {
					sub[node] = true
					for _, g := range treeChildren(node, root, n) {
						collect(g)
					}
				}
				collect(ch)
				ranks := subtreeRanks(ch, root, n)
				if len(ranks) != len(sub) {
					t.Fatalf("n=%d root=%d child %d: subtreeRanks %v vs walked %v", n, root, ch, ranks, sub)
				}
				for _, r := range ranks {
					if !sub[r] {
						t.Fatalf("n=%d root=%d child %d: rank %d in subtreeRanks but not walked", n, root, ch, r)
					}
				}
			}
		}
	}
}

// TestRetryWaitsForGiveBacks is the §4.4 retry/give-back regression: a
// local allocation at the second seller lands between the gather and the
// purchase, the batch is declined, the already-secured first-seller share
// is given back, and only then — a round panics on any give-back
// still in flight — does the next round re-gather. The retry must find
// the returned slots and succeed.
func TestRetryWaitsForGiveBacks(t *testing.T) {
	c := New(Config{Nodes: 4}, progs.NewImage())
	// Plan for k=3 is run [0,3): slot 0 is the initiator's own, slot 1
	// is bought from node 1, slot 2 from node 2 — a multi-seller
	// purchase. The hook interleaves a local allocation of slot 2 at
	// node 2 just before it serves the purchase, so the batch fails its
	// ownership check organically.
	fired := false
	n2 := c.Node(2)
	n2.buyHook = func(src int, giveBack bool) bool {
		if !giveBack && !fired {
			fired = true
			if err := n2.slots.AcquireAt(2, 1); err != nil {
				t.Errorf("racing allocation: %v", err)
			}
		}
		return false
	}
	if !negotiateSync(t, c, 0, 3) {
		t.Fatal("negotiation failed after the declined round")
	}
	if !fired {
		t.Fatal("the racing allocation never ran")
	}
	st := c.Stats()
	if st.NegotiationRetries == 0 {
		t.Fatal("the declined purchase did not register a retry")
	}
	// The retry's fresh gather saw the returned slot: the initiator now
	// owns a contiguous 3-run (slots 3..5: own slot 4 plus purchases).
	if c.Node(0).Slots().Bitmap().FindRun(3) < 0 {
		t.Fatal("initiator holds no contiguous 3-run after the retry")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeBuyRetriesOnShortfall is the tree-gather counterpart of the
// retry regression: a racing local allocation at one owner lands between
// the tree gather and the range purchase, the sold pieces no longer tile
// the chosen run, everything is given back (acknowledged before the next
// round — the same give-back check guards this path), and the
// retry succeeds against fresh bitmaps.
func TestRangeBuyRetriesOnShortfall(t *testing.T) {
	c := New(Config{Nodes: 4, Gather: GatherTree}, progs.NewImage())
	fired := false
	n2 := c.Node(2)
	n2.buyHook = func(src int, giveBack bool) bool {
		if !giveBack && !fired {
			fired = true
			if err := n2.slots.AcquireAt(2, 1); err != nil {
				t.Errorf("racing allocation: %v", err)
			}
		}
		return false
	}
	if !negotiateSync(t, c, 0, 3) {
		t.Fatal("range purchase failed after the shortfall round")
	}
	if !fired {
		t.Fatal("the racing allocation never ran")
	}
	st := c.Stats()
	if st.NegotiationRetries == 0 {
		t.Fatal("the shortfall did not register a retry")
	}
	if c.Node(0).Slots().Bitmap().FindRun(3) < 0 {
		t.Fatal("initiator holds no contiguous 3-run after the retry")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGiveBackDeclineDoesNotCrash: if the seller re-acquired a returned
// slot before the give-back arrives, the old code panicked in BuyRun;
// now the seller declines the batch and the initiator drops its claim,
// so ownership stays single and the node survives.
func TestGiveBackDeclineDoesNotCrash(t *testing.T) {
	c := New(Config{Nodes: 4}, progs.NewImage())
	// Force the multi-seller decline: node 2 refuses the purchase of
	// slot 2 outright, so the initiator gives slot 1 back to node 1 —
	// which meanwhile "re-acquired" it, colliding with the give-back.
	n1, n2 := c.Node(1), c.Node(2)
	declined := false
	n2.buyHook = func(src int, giveBack bool) bool {
		if !giveBack && !declined {
			declined = true
			return true
		}
		return false
	}
	collided := false
	n1.buyHook = func(src int, giveBack bool) bool {
		if giveBack && !collided {
			collided = true
			if err := n1.slots.BuyRun(1, 1); err != nil {
				t.Errorf("simulated re-acquisition: %v", err)
			}
		}
		return false
	}
	if !negotiateSync(t, c, 0, 3) {
		t.Fatal("negotiation failed after the declined give-back")
	}
	if !collided {
		t.Fatal("the give-back collision never happened")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("ownership broke after a declined give-back: %v", err)
	}
}

// TestLockManagerFIFO: contending acquisitions of the system-wide
// section are granted strictly in arrival order by its manager, node 0.
func TestLockManagerFIFO(t *testing.T) {
	c := New(Config{Nodes: 5}, progs.NewImage())
	var grants []int
	held := make([][]int, 5)
	take := func(n *Node, then func()) {
		n.lock(sectionKey, func() {
			held[n.id] = append(held[n.id], sectionKey)
			grants = append(grants, n.id)
			then()
		}, func() { t.Errorf("node %d: lock timed out", n.id) })
	}
	// Node 1 takes the lock at t=0 and sits on it; nodes 2, 3, 4
	// request while it is held, in a scattered order.
	c.At(1, func(n *Node) { take(n, func() {}) })
	for i, at := range map[int]simtime.Time{3: 10, 2: 20, 4: 30} {
		i, at := i, at
		c.Engine().At(at*simtime.Microsecond, func() {
			c.At(i, func(n *Node) {
				take(n, func() { n.unlockAll(&held[n.id]) })
			})
		})
	}
	c.Engine().At(100*simtime.Microsecond, func() {
		c.At(1, func(n *Node) { n.unlockAll(&held[1]) })
	})
	c.Run(0)
	want := []int{1, 3, 2, 4}
	if len(grants) != len(want) {
		t.Fatalf("grants = %v", grants)
	}
	for i := range want {
		if grants[i] != want[i] {
			t.Fatalf("grant order = %v, want %v (FIFO by arrival)", grants, want)
		}
	}
	if err := c.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestNegotiationRoundsExhausted: when every round's purchase is declined,
// the negotiation gives up with done(false) and the attempt still lands
// in the stats. The global arbiter gives up after maxNegotiationRounds
// and releases its lock for the next contender; the sharded arbiter
// first escalates to every shard and re-runs its round budget, then
// gives up with every shard released.
func TestNegotiationRoundsExhausted(t *testing.T) {
	for _, tc := range []struct {
		arb    ArbiterMode
		rounds int
	}{
		{ArbiterGlobal, maxNegotiationRounds},
		{ArbiterSharded, 2 * maxNegotiationRounds},
	} {
		t.Run(tc.arb.String(), func(t *testing.T) {
			c := New(Config{Nodes: 2, Arbiter: tc.arb}, progs.NewImage())
			declines := 0
			c.Node(1).buyHook = func(src int, giveBack bool) bool {
				if !giveBack {
					declines++
					return true
				}
				return false
			}
			if negotiateSync(t, c, 0, 2) {
				t.Fatal("negotiation succeeded against an always-declining seller")
			}
			if declines != tc.rounds {
				t.Fatalf("declines = %d, want %d", declines, tc.rounds)
			}
			st := c.Stats()
			if st.Negotiations != 1 || st.NegotiationFailures != 1 {
				t.Fatalf("stats not recorded: %+v", st)
			}
			// A failed attempt must not enter the latency series: the
			// p50/p95/p99 percentiles describe successful protocol runs only.
			if len(st.NegotiationLatencies) != 0 {
				t.Fatalf("failed negotiation leaked %d latencies into the percentile series", len(st.NegotiationLatencies))
			}
			if st.NegotiationRetries != tc.rounds {
				t.Fatalf("retries = %d, want %d", st.NegotiationRetries, tc.rounds)
			}
			// The arbiter is actually re-acquirable: a fresh negotiation
			// against a seller that accepts succeeds.
			c.Node(1).buyHook = nil
			if !negotiateSync(t, c, 0, 2) {
				t.Fatal("negotiation failed after an exhausted one")
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
