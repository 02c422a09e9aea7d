package pm2

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/layout"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// TestDeltaGatherWarmRoundsShipDeltas is the point of the delta gather:
// the first negotiation pays the full-map price (first contact), but
// from the second on the same initiator merges only the words that
// changed — orders of magnitude fewer bytes, and measurably less virtual
// time than the sequential and tree gathers, which ship full maps every
// round, spend on the same workload.
func TestDeltaGatherWarmRoundsShipDeltas(t *testing.T) {
	run := func(gather GatherMode) (second simtime.Time, merged uint64) {
		c := New(Config{Nodes: 8, Gather: gather}, progs.NewImage())
		if !negotiateSync(t, c, 0, 3) {
			t.Fatalf("%s: first negotiation failed", gather)
		}
		if !negotiateSync(t, c, 0, 3) {
			t.Fatalf("%s: second negotiation failed", gather)
		}
		st := c.Stats()
		if st.Negotiations != 2 || len(st.NegotiationLatencies) != 2 {
			t.Fatalf("%s: stats %+v", gather, st)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", gather, err)
		}
		return st.NegotiationLatencies[1], st.GatherMergedBytes
	}
	delSecond, delMerged := run(GatherDelta)
	// Delta pays full maps once (first contact), then only dirty words.
	if warmDelta := delMerged - 7*uint64(layout.BitmapBytes); warmDelta > 7*4*deltaWordWireBytes {
		t.Fatalf("warm delta round merged %d bytes — views are not incremental", warmDelta)
	}
	for _, g := range []GatherMode{GatherSequential, GatherTree} {
		second, merged := run(g)
		// Both negotiations under a full-map gather merge a full map per
		// peer: 2×7×7 KB.
		if want := uint64(2 * 7 * layout.BitmapBytes); merged != want {
			t.Fatalf("%s merged %d bytes, want %d", g, merged, want)
		}
		if delMerged >= merged*3/4 {
			t.Fatalf("delta merged %d bytes, not well below %s's %d", delMerged, g, merged)
		}
		if delSecond >= second {
			t.Fatalf("warm delta negotiation (%v) not cheaper than %s (%v)", delSecond, g, second)
		}
	}
}

// TestDeltaGatherTracksRemoteChanges: a peer whose bitmap changed
// between two negotiations must not be claimed from its stale cached
// view — the version bump forces a delta that removes the sold slots
// before planning. Exercised through a racing local allocation at the
// peer, which declines the purchase and must NOT decline again on the
// retry (the retry re-gathers deltas, so the second plan sees the
// truth).
func TestDeltaGatherTracksRemoteChanges(t *testing.T) {
	c := New(Config{Nodes: 4, Gather: GatherDelta}, progs.NewImage())
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
	if got := c.Node(0).pendingGiveBacks; got != 0 {
		t.Fatalf("%d give-backs still pending after the negotiation", got)
	}
	if c.Node(0).Slots().Bitmap().FindRun(3) < 0 {
		t.Fatal("initiator holds no contiguous 3-run after the retry")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaGatherJournalTruncationFallsBack: when a peer mutates more
// distinct bitmap words than its journal holds between two contacts,
// the journal truncates and the next request is served a full map — a
// bandwidth fallback that must leave the outcome correct. The scenario
// runs at workers 1 and 4 with identical merged-byte accounting: the
// truncation fallback is initiator-lane state, so it composes with the
// parallel kernel like everything else.
func TestDeltaGatherJournalTruncationFallsBack(t *testing.T) {
	warmByWorkers := make(map[int]uint64)
	for _, workers := range []int{1, 4} {
		warmByWorkers[workers] = deltaTruncationWarmBytes(t, workers)
	}
	if warmByWorkers[1] != warmByWorkers[4] {
		t.Fatalf("truncation-fallback merged bytes deviate across worker counts: workers=1 %d, workers=4 %d",
			warmByWorkers[1], warmByWorkers[4])
	}
}

// overflowJournal overflows node 1's journal in a 4-node round-robin
// cluster through real ownership mutations: it allocates one owned free
// slot locally in more distinct bitmap words than the journal can track,
// so every peer view cached before the call is stale in those words and
// must resync with a full map.
func overflowJournal(t *testing.T, c *Cluster) {
	t.Helper()
	n1 := c.Node(1)
	done := false
	c.At(1, func(n *Node) {
		for w := 0; w < deltaJournalWords+8; w++ {
			// Slot w*256+129 is ≡1 mod 4 (node 1's under round-robin),
			// beyond the low runs the earlier negotiations bought, and
			// each iteration lands in a distinct bitmap word.
			slot := w*256 + 129
			if err := n.slots.AcquireAt(slot, 1); err != nil {
				t.Errorf("setup: allocating slot %d on node 1: %v", slot, err)
			}
		}
		done = true
	})
	c.Run(0)
	if !done {
		t.Fatal("journal overflow setup never ran")
	}
	if _, ok := n1.journal.WordsSince(0); ok {
		t.Fatal("journal did not truncate under overflow")
	}
}

func deltaTruncationWarmBytes(t *testing.T, workers int) uint64 {
	t.Helper()
	c := New(Config{Nodes: 4, Gather: GatherDelta, Workers: workers}, progs.NewImage())
	if !negotiateSync(t, c, 0, 2) {
		t.Fatal("first negotiation failed")
	}
	merged0 := c.Stats().GatherMergedBytes

	overflowJournal(t, c)

	if !negotiateSync(t, c, 0, 2) {
		t.Fatal("negotiation after truncation failed")
	}
	// Node 1 must have served a full 7 KB map again; the other peers
	// shipped deltas or nothing.
	warm := c.Stats().GatherMergedBytes - merged0
	if warm < uint64(layout.BitmapBytes) {
		t.Fatalf("post-truncation round merged only %d bytes — no full-map fallback", warm)
	}
	if warm >= uint64(2*layout.BitmapBytes) {
		t.Fatalf("post-truncation round merged %d bytes — more than one full map", warm)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return warm
}

// TestDeltaGatherCachedOrCoherent: the cached global OR is patched word
// by word, never rebuilt, so it must equal the from-scratch OR of the
// cached peer views after every reply and every negotiation. Initiators
// contend on the global lock around a journal overflow, so the run
// covers all four reply kinds — first contact, word delta, unchanged and
// the truncation full map decoded over a cached view — at workers 1 and
// 2. Dropping a view (suspicion, rejoin, reclaim) must leave the OR
// coherent too.
func TestDeltaGatherCachedOrCoherent(t *testing.T) {
	for _, workers := range []int{1, 2} {
		c := New(Config{Nodes: 4, Gather: GatherDelta, Workers: workers}, progs.NewImage())
		// kinds[i] tallies node i's replies by kind; each node's hook
		// runs on its own lane, so the tallies need no lock.
		const (
			firstContact = iota
			words
			unchanged
			truncation
		)
		kinds := make([][4]int, c.Nodes())
		for i := 0; i < c.Nodes(); i++ {
			n := c.Node(i)
			fullSeen := make([]bool, c.Nodes())
			n.deltaReplyHook = func(p int, status uint32) {
				switch status {
				case deltaReplyFull:
					if fullSeen[p] {
						kinds[n.id][truncation]++
					} else {
						kinds[n.id][firstContact]++
					}
					fullSeen[p] = true
				case deltaReplyWords:
					kinds[n.id][words]++
				case deltaReplyUnchanged:
					kinds[n.id][unchanged]++
				}
				checkDeltaOrCoherent(t, n)
			}
		}
		contend := func(initiators ...int) {
			t.Helper()
			// One flag per initiator: the callbacks run on their own lanes.
			completed := make([]bool, c.Nodes())
			for _, id := range initiators {
				c.At(id, func(n *Node) {
					n.negotiate(2, func(ok bool) {
						if !ok {
							t.Errorf("workers=%d: node %d's negotiation failed", workers, n.id)
						}
						checkDeltaOrCoherent(t, n)
						completed[n.id] = true
					})
				})
			}
			c.Run(0)
			for _, id := range initiators {
				if !completed[id] {
					t.Fatalf("workers=%d: node %d's negotiation never completed", workers, id)
				}
			}
		}
		contend(0, 2, 3)
		contend(0, 2, 3)
		overflowJournal(t, c)
		contend(0, 2, 3)
		contend(0, 2, 3)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var total [4]int
		for _, k := range kinds {
			for i, x := range k {
				total[i] += x
			}
		}
		t.Logf("workers=%d: first-contact, word-delta, unchanged, truncation replies: %v", workers, total)
		for i, name := range []string{"first-contact", "word-delta", "unchanged", "truncation"} {
			if total[i] == 0 {
				t.Errorf("workers=%d: no %s reply exercised (tallies %v)", workers, name, total)
			}
		}
		for _, id := range []int{0, 2, 3} {
			n := c.Node(id)
			n.forgetDeltaPeer(1)
			if n.deltaPeers[1].bm != nil {
				t.Fatalf("node %d still caches node 1's view", id)
			}
			checkDeltaOrCoherent(t, n)
		}
	}
}

// checkDeltaOrCoherent compares node n's cached global OR with the OR of
// its cached peer views computed from scratch.
func checkDeltaOrCoherent(t *testing.T, n *Node) {
	t.Helper()
	want := bitmap.New(layout.SlotCount)
	for q, v := range n.deltaPeers {
		if q != n.id && v.bm != nil {
			want.Or(v.bm)
		}
	}
	if !n.deltaOr.Equal(want) {
		t.Errorf("node %d: cached global OR (%d bits) != OR of its views (%d bits)",
			n.id, n.deltaOr.Count(), want.Count())
	}
}

// TestDeltaGatherSeesDefragInstalls: a defragmentation rewrites every
// node's bitmap wholesale; the install bumps versions, so an initiator
// holding pre-defrag cached views must resync (via deltas or full maps)
// and plan on the restructured distribution without ever double-owning
// a slot.
func TestDeltaGatherSeesDefragInstalls(t *testing.T) {
	c := New(Config{Nodes: 4, Gather: GatherDelta}, progs.NewImage())
	if !negotiateSync(t, c, 0, 3) {
		t.Fatal("pre-defrag negotiation failed")
	}
	c.DefragmentSync(1)
	if !negotiateSync(t, c, 0, 3) {
		t.Fatal("post-defrag negotiation failed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
