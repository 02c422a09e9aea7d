package pm2

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/bip"
	"repro/internal/bitmap"
	"repro/internal/layout"
	"repro/internal/madeleine"
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
// bandwidth fallback that must leave the outcome correct.
func TestDeltaGatherJournalTruncationFallsBack(t *testing.T) {
	c := New(Config{Nodes: 4, Gather: GatherDelta}, progs.NewImage())
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
	if _, ok := n1.journal.AppendWordsSince(nil, 0); ok {
		t.Fatal("journal did not truncate under overflow")
	}
}

// TestDeltaGatherCachedOrCoherent: the cached global OR is patched word
// by word, never rebuilt, so it must equal the from-scratch OR of the
// cached peer views after every reply and every negotiation. Initiators
// contend on the global lock around a journal overflow, so the run
// covers all four reply kinds — first contact, word delta, unchanged and
// the truncation full map decoded over a cached view. Dropping a view (suspicion, rejoin, reclaim) must leave the OR
// coherent too.
func TestDeltaGatherCachedOrCoherent(t *testing.T) {
	c := New(Config{Nodes: 4, Gather: GatherDelta}, progs.NewImage())
	// kinds[i] tallies node i's replies by kind.
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
	contend(t, c, 0, 2, 3)
	contend(t, c, 0, 2, 3)
	overflowJournal(t, c)
	contend(t, c, 0, 2, 3)
	contend(t, c, 0, 2, 3)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var total [4]int
	for _, k := range kinds {
		for i, x := range k {
			total[i] += x
		}
	}
	t.Logf("first-contact, word-delta, unchanged, truncation replies: %v", total)
	for i, name := range []string{"first-contact", "word-delta", "unchanged", "truncation"} {
		if total[i] == 0 {
			t.Errorf("no %s reply exercised (tallies %v)", name, total)
		}
	}
	for _, id := range []int{0, 2, 3} {
		n := c.Node(id)
		n.forgetDeltaPeer(1)
		if n.deltaPeers[1] != nil {
			t.Fatalf("node %d still caches node 1's view", id)
		}
		checkDeltaOrCoherent(t, n)
	}
}

// contend starts a 2-slot negotiation at every initiator at once, so
// they queue on the arbiter, and runs c until all of them completed.
func contend(t *testing.T, c *Cluster, initiators ...int) {
	t.Helper()
	completed := make([]bool, c.Nodes())
	for _, id := range initiators {
		c.At(id, func(n *Node) {
			n.negotiate(2, func(ok bool) {
				if !ok {
					t.Errorf("node %d's negotiation failed", n.id)
				}
				checkDeltaOrCoherent(t, n)
				completed[n.id] = true
			})
		})
	}
	c.Run(0)
	for _, id := range initiators {
		if !completed[id] {
			t.Fatalf("node %d's negotiation never completed", id)
		}
	}
	if err := c.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// checkDeltaOrCoherent compares node n's cached global OR with the OR of
// its cached peer views computed from scratch.
func checkDeltaOrCoherent(t *testing.T, n *Node) {
	t.Helper()
	want := bitmap.New(layout.SlotCount)
	for q, v := range n.deltaPeers {
		if q != n.id && v != nil {
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

// deltaWordsReply builds a chBitmapDelta word-delta reply carrying the
// given (word index, value) pairs, as onBitmapDeltaCall packs it.
func deltaWordsReply(ver uint64, words ...[2]uint64) []byte {
	b := madeleine.NewBuffer().PackU32(deltaReplyWords).PackU64(ver).PackU32(uint32(len(words)))
	for _, w := range words {
		b.PackU32(uint32(w[0])).PackU64(w[1])
	}
	return b.Bytes()
}

// TestApplyDeltaReplyPatchesExactly drives applyDeltaReply with the
// four kinds of delta word the additive patch tells apart, and after
// each one compares the cached global OR with the OR of the views
// computed from scratch:
//   - a word that only adds bits (ORed in directly);
//   - a word that clears a bit only this view held (the bit must go);
//   - a word that clears a bit another, stale view still holds (the bit
//     must stay);
//   - an unchanged word (nothing to patch).
func TestApplyDeltaReplyPatchesExactly(t *testing.T) {
	c := New(Config{Nodes: 4, Gather: GatherDelta}, progs.NewImage())
	if !negotiateSync(t, c, 0, 3) {
		t.Fatal("warm-up negotiation failed")
	}
	// Word 100 holds slots 6400..6463; under the 4-node round robin,
	// node 1 owns free slots 6401, 6405, ... and node 2 owns 6402, ...
	const w = 100
	bit := func(slot int) uint64 { return 1 << uint(slot-w*64) }
	c.At(0, func(n *Node) {
		view1, view2 := n.deltaPeers[1].bm, n.deltaPeers[2].bm
		if view1.Word(w) == 0 || view2.Word(w) == 0 || view1.Word(w)&view2.Word(w) != 0 {
			t.Fatalf("views 1 and 2 do not own disjoint slots in word %d", w)
		}
		steps := []struct {
			name    string
			peer    int
			value   uint64
			slot    int
			wantSet bool
		}{
			// View 2 goes stale: it gains slot 6401, which view 1 holds.
			{"add-only", 2, view2.Word(w) | bit(6401), 6401, true},
			// View 1 drops slot 6405, which no other view holds.
			{"clear sole holder", 1, view1.Word(w) &^ bit(6405), 6405, false},
			// View 1 drops slot 6401; stale view 2 still holds it.
			{"clear shared bit", 1, view1.Word(w) &^ bit(6405) &^ bit(6401), 6401, true},
			{"unchanged", 2, view2.Word(w) | bit(6401), 6401, true},
		}
		for i, st := range steps {
			n.applyDeltaReply(st.peer, true, madeleine.FromBytes(deltaWordsReply(uint64(100+i), [2]uint64{w, st.value})))
			if got := n.deltaPeers[st.peer].bm.Word(w); got != st.value {
				t.Errorf("%s: view %d word = %#x, want %#x", st.name, st.peer, got, st.value)
			}
			if got := n.deltaOr.Test(st.slot); got != st.wantSet {
				t.Errorf("%s: global OR has slot %d = %v, want %v", st.name, st.slot, got, st.wantSet)
			}
			checkDeltaOrCoherent(t, n)
		}
	})
	c.Run(0)
}

// buyAndTake runs one 3-slot negotiation at node 0 of c and has node 0
// take the run it bought, as an isomalloc would, so that the next round
// has to buy again. It fails unless node 0 owned no free 3-slot run
// before the round and owns one when the negotiation ends.
func buyAndTake(tb testing.TB, c *Cluster) {
	n0 := c.Node(0)
	if s := n0.slots.Bitmap().FindRun(3); s >= 0 {
		tb.Fatalf("node 0 already owns the free run at slot %d: the round buys nothing", s)
	}
	took := false
	c.At(0, func(*Node) {
		n0.negotiate(3, func(ok bool) {
			if ok {
				_, err := n0.slots.AcquireRun(3)
				took = err == nil
			}
		})
	})
	c.Run(0)
	if !took {
		tb.Fatal("negotiation failed or bought no run")
	}
}

// TestWarmDeltaNegotiationHostBytes gates the host memory a warm
// delta-gather negotiation allocates on a 16-node cluster, under the
// global and the sharded arbiter. Node 0 owns every 16th slot, so no
// 3-slot run of its own: each round gathers, locks, buys a run from its
// neighbours, and node 0 then takes the run, so the gate covers the
// purchase and lock paths, not just the plan. A warm round allocates
// little: the plan runs on node scratch, purchases test runs word-wise,
// headers are coded on the stack, the round's callbacks are bound once,
// and wire bodies, inbound buffers and calls are recycled. Measured:
// 1,818 bytes per round under the global arbiter and 1,842 under the
// sharded one, against 2,112 and 2,346 while every purchase grouped its
// shares through a map, and 10,705 and 10,937 before the message path
// reused its memory (7,975 when the rounds bought nothing); the ceiling
// is 1.5× the global figure. A poison build retires every released buffer
// and call instead, so it checks the purchase path but not the ceiling.
func TestWarmDeltaNegotiationHostBytes(t *testing.T) {
	for _, arb := range []ArbiterMode{ArbiterGlobal, ArbiterSharded} {
		c := New(Config{Nodes: 16, Gather: GatherDelta, Arbiter: arb}, progs.NewImage())
		// The first round is first contact: full maps become views.
		buyAndTake(t, c)
		const rounds = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			buyAndTake(t, c)
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / rounds
		t.Logf("%s: %d host bytes per warm 16-node delta negotiation", arb, per)
		const ceiling = 1818 * 3 / 2
		if bip.Poison {
			t.Log("poison build: released message handles are retired, so the ceiling is not checked")
		} else if per > ceiling {
			t.Fatalf("%s: a warm 16-node delta negotiation allocates %d host bytes, ceiling %d", arb, per, ceiling)
		}
		if err := c.CheckDrained(); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkWarmDeltaNegotiation measures one warm delta-gather
// negotiation for 3 slots on a 16-node cluster, driven to completion and
// followed by node 0 taking the run it bought — the setup of
// TestWarmDeltaNegotiationHostBytes — in host ns and allocations per
// negotiation.
// Every round takes 3 of the cluster's 57,344 slots, so a fresh cluster
// replaces it, off the clock, every 4,096 rounds.
func BenchmarkWarmDeltaNegotiation(b *testing.B) {
	var c *Cluster
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			b.StopTimer()
			c = New(Config{Nodes: 16, Gather: GatherDelta}, progs.NewImage())
			buyAndTake(b, c) // first contact: full maps become views
			b.StartTimer()
		}
		buyAndTake(b, c)
	}
}

// BenchmarkApplyDelta measures folding one typical word-delta reply —
// two words — into a cached view and the global OR. The replies
// alternate between clearing one bit in each word (recomputed across
// the views) and setting it back (ORed in directly), as sales and
// purchases alternate in a negotiating cluster.
func BenchmarkApplyDelta(b *testing.B) {
	c := New(Config{Nodes: 64, Gather: GatherDelta}, progs.NewImage())
	ok := false
	c.At(0, func(n *Node) { n.negotiate(3, func(got bool) { ok = got }) })
	c.Run(0)
	if !ok {
		b.Fatal("warm-up negotiation failed")
	}
	c.At(0, func(n *Node) {
		view := n.deltaPeers[1].bm
		w1, w2 := 100, 101
		v1, v2 := view.Word(w1), view.Word(w2)
		low := func(v uint64) uint64 { return v & -v }
		replies := [2][]byte{
			deltaWordsReply(1, [2]uint64{uint64(w1), v1 &^ low(v1)}, [2]uint64{uint64(w2), v2 &^ low(v2)}),
			deltaWordsReply(2, [2]uint64{uint64(w1), v1}, [2]uint64{uint64(w2), v2}),
		}
		for i := 0; b.Loop(); i++ {
			n.applyDeltaReply(1, true, madeleine.FromBytes(replies[i&1]))
		}
	})
	c.Run(0)
}

// TestDeltaViewsShareSnapshots: initiators whose cached views of a rank
// stand at the same version share one map. Eight of sixteen nodes
// contend twice on the global lock, so each next initiator gathers
// rank p at the version the previous one left it; no two same-version
// views may hold separate copies, and there are no more distinct view
// maps than distinct (rank, version) pairs.
func TestDeltaViewsShareSnapshots(t *testing.T) {
	c := New(Config{Nodes: 16, Gather: GatherDelta}, progs.NewImage())
	initiators := []int{0, 2, 4, 6, 8, 10, 12, 14}
	contend(t, c, initiators...)
	contend(t, c, initiators...)
	type key struct {
		rank    int
		version uint64
	}
	byKey := make(map[key]*bitmap.Bitmap)
	maps := make(map[*bitmap.Bitmap]bool)
	views := 0
	for _, id := range initiators {
		for p, v := range c.Node(id).deltaPeers {
			if v == nil {
				continue
			}
			views++
			k := key{p, v.version}
			if bm, ok := byKey[k]; ok && bm != v.bm {
				t.Errorf("nodes hold two copies of node %d's map at version %d", p, v.version)
			}
			byKey[k] = v.bm
			maps[v.bm] = true
		}
	}
	t.Logf("%d views, %d distinct (rank, version) pairs, %d distinct maps", views, len(byKey), len(maps))
	if len(maps) > len(byKey) {
		t.Errorf("%d distinct view maps for %d (rank, version) pairs", len(maps), len(byKey))
	}
	if len(maps) >= views {
		t.Errorf("no view shares its map: %d maps for %d views", len(maps), views)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaSnapshotsReleased: every path that drops cached views
// releases their snapshots — suspicion, rejoin, the reclaim of a
// declared-dead rank and checkpoint capture — and leaves each
// snapshot's reference count equal to the views on it
// (Cluster.CheckInvariants).
func TestDeltaSnapshotsReleased(t *testing.T) {
	// The slow window installs the fault state and slows nothing.
	c := New(Config{Nodes: 8, Gather: GatherDelta, Faults: mustPlan(t, "slow:7x1@0..1")}, progs.NewImage())
	initiators := []int{0, 2, 4, 6}
	check := func(step string, dropped int) {
		t.Helper()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
		if dropped < 0 {
			return
		}
		if s := c.snaps.latest[dropped]; s != nil {
			t.Fatalf("after %s: the table still keeps node %d's snapshot at version %d", step, dropped, s.version)
		}
		for _, n := range c.nodes {
			if n.deltaPeers != nil && n.deltaPeers[dropped] != nil {
				t.Fatalf("after %s: node %d still views node %d", step, n.id, dropped)
			}
		}
	}
	contend(t, c, initiators...)
	contend(t, c, initiators...)
	check("the warm-up", -1)
	now := c.Engine().Now()
	c.suspect(5, now)
	check("suspecting node 5", 5)
	c.rejoin(5, now)
	check("node 5's rejoin", 5)
	c.suspect(2, now)
	c.rejoin(2, now)
	for p, v := range c.Node(2).deltaPeers {
		if v != nil {
			t.Fatalf("rejoined node 2 still views node %d", p)
		}
	}
	check("node 2's rejoin", 2)
	contend(t, c, initiators...)
	c.declareDead(3, now)
	c.Run(0)
	check("reclaiming node 3", 3)

	// Capture needs a cluster without a fault plan.
	c = New(Config{Nodes: 8, Gather: GatherDelta}, progs.NewImage())
	contend(t, c, initiators...)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("checkpoint capture", -1)
	for p, s := range c.snaps.latest {
		if s != nil {
			t.Fatalf("after checkpoint capture the table keeps node %d's snapshot", p)
		}
	}
	for _, id := range initiators {
		for p, v := range c.Node(id).deltaPeers {
			if v != nil {
				t.Fatalf("after checkpoint capture node %d still views node %d", id, p)
			}
		}
	}
}

// TestSharedVersionDisagreementPanics: one (rank, version) pair names
// one map, so a reply at the version of the table's snapshot that
// disagrees with it is a protocol violation. Node 2 publishes node 1's
// map at a synthetic version; node 0 then receives a word delta or a
// full map at that version that differs in one bit, and must panic
// instead of adopting either copy.
func TestSharedVersionDisagreementPanics(t *testing.T) {
	const (
		ver = 1000
		w   = 100
	)
	for _, full := range []bool{false, true} {
		c := New(Config{Nodes: 4, Gather: GatherDelta}, progs.NewImage())
		contend(t, c, 0, 2)
		n0, n2 := c.Node(0), c.Node(2)
		truth := n2.deltaPeers[1].bm.Clone()
		truth.SetWord(w, truth.Word(w)^1)
		wrong := truth.Clone()
		wrong.SetWord(w, wrong.Word(w)^2)
		reply := func(bm *bitmap.Bitmap) *madeleine.Buffer {
			if full {
				return madeleine.FromBytes(madeleine.NewBuffer().PackU32(deltaReplyFull).PackU64(ver).PackBytes(bm.Bytes()).Bytes())
			}
			return madeleine.FromBytes(deltaWordsReply(ver, [2]uint64{w, bm.Word(w)}))
		}
		n2.actor.Mute(func() { n2.applyDeltaReply(1, true, reply(truth)) })
		if s := c.snaps.at(1, ver); s == nil || !s.bm.Equal(truth) {
			t.Fatalf("full=%v: node 2's reply published no snapshot at version %d", full, ver)
		}
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "disagrees with its shared snapshot") {
					t.Errorf("full=%v: a disagreeing reply at a shared version gave %v, want a disagreement panic", full, r)
				}
			}()
			n0.actor.Mute(func() { n0.applyDeltaReply(1, true, reply(wrong)) })
		}()
	}
}

// TestApplyDeltaReplyAllocations gates a warm word-delta reply at zero
// host allocations, both when it patches a view its node holds alone
// and when it adopts the snapshot another node published at the same
// version. In the shared case node 2 applies each reply first, copying
// the shared view the two nodes held into a snapshot from the free
// list, and node 0 then adopts it and releases the old one.
func TestApplyDeltaReplyAllocations(t *testing.T) {
	if bip.Poison {
		t.Skip("poison build: released snapshots are retired, so every copy allocates")
	}
	c := New(Config{Nodes: 4, Gather: GatherDelta}, progs.NewImage())
	contend(t, c, 0, 2)
	n0, n2 := c.Node(0), c.Node(2)
	const w = 100
	v := n0.deltaPeers[1].bm.Word(w)
	low := v & -v
	// Versions far above any the cluster reached, so no real snapshot
	// stands at them.
	const ver = 1 << 40
	replies := [2][]byte{
		deltaWordsReply(ver, [2]uint64{w, v &^ low}),
		deltaWordsReply(ver+1, [2]uint64{w, v}),
	}
	var buf madeleine.Buffer
	apply := func(n *Node, reply []byte) {
		buf = *madeleine.FromBytes(reply)
		n.actor.Mute(func() { n.applyDeltaReply(1, true, &buf) })
	}
	i := 0
	sole := testing.AllocsPerRun(100, func() {
		apply(n0, replies[i&1])
		i++
	})
	if refs := n0.deltaPeers[1].refs; refs != 1 {
		t.Fatalf("node 0's view of node 1 has %d holders, want it alone", refs)
	}
	shared := testing.AllocsPerRun(100, func() {
		apply(n2, replies[i&1])
		apply(n0, replies[i&1])
		i++
	})
	if n0.deltaPeers[1] != n2.deltaPeers[1] {
		t.Fatal("node 0 did not adopt node 2's snapshot")
	}
	t.Logf("allocations per reply: %.1f sole-held, %.1f per copy and shared hit", sole, shared)
	if sole != 0 || shared != 0 {
		t.Fatalf("warm word-delta replies allocate: %.1f sole-held, %.1f per copy and shared hit, want 0", sole, shared)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
