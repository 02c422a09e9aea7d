package pm2

import (
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// TestDefragmentationEliminatesNegotiations: under round-robin no node owns
// contiguous slots, so every multi-slot allocation negotiates; after the
// §4.4 global restructuring each node owns one big range and the same
// allocations are purely local.
func TestDefragmentationEliminatesNegotiations(t *testing.T) {
	c := New(Config{Nodes: 4}, progs.NewImage())
	c.DefragmentSync(0)
	st := c.Stats()
	if st.Defragmentations != 1 {
		t.Fatalf("defragmentations = %d", st.Defragmentations)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Each node now holds a contiguous quarter of the area.
	for i := 0; i < 4; i++ {
		bm := c.Node(i).Slots().Bitmap()
		if bm.Count() != layout.SlotCount/4 {
			t.Fatalf("node %d owns %d slots", i, bm.Count())
		}
		if bm.FindRun(1000) < 0 {
			t.Fatalf("node %d not contiguous after defrag", i)
		}
	}
	// A multi-slot allocation is now local: no negotiation.
	th := c.SpawnSync(1, "allocone", 0)
	c.At(1, func(n *Node) {
		tt, _ := n.sched.Lookup(th)
		tt.Regs.R[1] = 500_000
		n.kick()
	})
	c.Run(0)
	if got := c.Stats().Negotiations; got != 0 {
		t.Fatalf("negotiations after defrag = %d, want 0", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDefragmentationPreservesRunningThreads: threads own their slots
// (their bits are 0 everywhere), so a defrag in the middle of the Figure 7
// workload must not disturb them.
func TestDefragmentationPreservesRunningThreads(t *testing.T) {
	c := New(Config{Nodes: 2}, progs.NewImage())
	c.Spawn(0, "p4", 150)
	c.RunFor(100 * simtime.Microsecond) // partway through building the list
	c.DefragmentSync(0)
	c.Run(0)
	lines := c.Trace().Lines()
	if len(lines) != 153 {
		from := len(lines) - 4
		if from < 0 {
			from = 0
		}
		t.Fatalf("trace lines = %d:\n%s", len(lines), strings.Join(lines[from:], "\n"))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnOnExhaustedNodeNegotiates reproduces §4.4's "the same algorithm
// may be used if a node has run out of slots": node 1 surrenders everything
// it owns, then a remote spawn onto it must buy a slot from node 0.
func TestSpawnOnExhaustedNodeNegotiates(t *testing.T) {
	im := progs.NewImage()
	mustAsm(im, `
.program spawner
.string fmt "spawned %x\n"
main:
    loadi r1, 1          ; dest
    loadi r2, p1         ; entry
    loadi r3, 0
    callb spawn_remote
    mov   r2, r0
    loadi r1, fmt
    callb printf
    halt
`)
	c := New(Config{Nodes: 2}, im)
	// Exhaust node 1.
	done := false
	c.At(1, func(n *Node) {
		n.slots.SurrenderAll()
		done = true
	})
	for !done && c.eng.Step() {
	}
	c.Spawn(0, "spawner", 0)
	c.Run(0)
	st := c.Stats()
	if st.Negotiations != 1 {
		t.Fatalf("negotiations = %d, want 1 (slot purchase for the stack)", st.Negotiations)
	}
	out := c.Trace().String()
	if !strings.Contains(out, "spawned") || !strings.Contains(out, "[node1] value = 1") {
		t.Fatalf("trace:\n%s", out)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterSpawnOnExhaustedNode covers the control-plane spawn path.
func TestClusterSpawnOnExhaustedNode(t *testing.T) {
	c := New(Config{Nodes: 2}, progs.NewImage())
	done := false
	c.At(1, func(n *Node) {
		n.slots.SurrenderAll()
		done = true
	})
	for !done && c.eng.Step() {
	}
	c.Spawn(1, "p1", 0) // needs a slot on the exhausted node 1
	c.Run(0)
	if c.Stats().Negotiations != 1 {
		t.Fatalf("negotiations = %d", c.Stats().Negotiations)
	}
	// p1 starts on node 1, migrates to node 1 (no-op): prints twice.
	want := "[node1] value = 1\n[node1] value = 1"
	if got := c.Trace().String(); got != want {
		t.Fatalf("trace = %q", got)
	}
}

// TestPreBuyAvoidsRepeatNegotiations: with PreBuySlots, the first
// negotiation over-purchases so subsequent multi-slot allocations stay
// local.
func TestPreBuyAvoidsRepeatNegotiations(t *testing.T) {
	mk := func(pre int) int {
		im := progs.NewImage()
		mustAsm(im, `
.program bigalloc3
main:
    loadi r1, 100000
    callb isomalloc
    loadi r1, 100000
    callb isomalloc
    loadi r1, 100000
    callb isomalloc
    halt
`)
		c := New(Config{Nodes: 2, PreBuySlots: pre}, im)
		c.Spawn(0, "bigalloc3", 0)
		c.Run(0)
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return c.Stats().Negotiations
	}
	without := mk(0)
	with := mk(8)
	if without != 3 {
		t.Fatalf("without pre-buy: %d negotiations, want 3", without)
	}
	if with != 1 {
		t.Fatalf("with pre-buy: %d negotiations, want 1", with)
	}
}

// TestDefragmentExcludesNegotiations: a defragmentation takes the
// arbiter's whole slot space, so a negotiation that overlaps it waits
// for it instead of failing on the surrendered (empty) bitmaps, or
// buying slots that the replacement bitmaps then hand to someone else.
// Node 0 defragments at t=0 while ranks 1–3 each negotiate 3 slots,
// starting anywhere from before the defragmentation to after it.
func TestDefragmentExcludesNegotiations(t *testing.T) {
	for _, arb := range []ArbiterMode{ArbiterGlobal, ArbiterSharded} {
		for start := simtime.Time(0); start <= 3000*simtime.Microsecond; start += 50 * simtime.Microsecond {
			c := New(Config{Nodes: 4, Gather: GatherDelta, Arbiter: arb}, progs.NewImage())
			c.Defragment(0, nil)
			succeeded := 0
			c.Engine().At(start, func() {
				for i := 1; i < 4; i++ {
					c.At(i, func(n *Node) {
						n.negotiate(3, func(ok bool) {
							if ok {
								succeeded++
							}
						})
					})
				}
			})
			c.Run(0)
			if succeeded != 3 {
				t.Fatalf("%s, start %v: %d of 3 negotiations succeeded on a free cluster", arb, start, succeeded)
			}
			if got := freeSlotTotal(c); got != layout.SlotCount {
				t.Fatalf("%s, start %v: owned-free total %d, want %d", arb, start, got, layout.SlotCount)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s, start %v: %v", arb, start, err)
			}
			if err := c.CheckDrained(); err != nil {
				t.Fatalf("%s, start %v: %v", arb, start, err)
			}
		}
	}
}
