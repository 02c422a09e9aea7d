package pm2

import (
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// TestSpawnTimeoutFallsBack pins the spawn policy of the call record: a
// remote spawn whose destination is partitioned away from the requester
// times out and lands on the next live rank, and a spawn that runs out
// of reachable ranks reports tid 0. The partitioned ranks receive their
// requests only after the heal, past the deadline, and discard them.
func TestSpawnTimeoutFallsBack(t *testing.T) {
	spawn := func(t *testing.T, spec string, dest int) (uint32, *Cluster) {
		t.Helper()
		c := New(Config{Nodes: 4, RPCTimeout: -1, Faults: mustPlan(t, spec)}, progs.NewImage())
		tid, fired := uint32(0), false
		c.At(0, func(n *Node) {
			n.spawnRemote(dest, mustEntry(c, "worker"), 100, func(got uint32) { tid, fired = got, true })
		})
		c.Run(0)
		if !fired {
			t.Fatal("the spawn never reported back")
		}
		if err := c.CheckDrained(); err != nil {
			t.Fatal(err)
		}
		return tid, c
	}
	finished := func(c *Cluster) []string {
		var on []string
		for _, l := range c.Trace().Lines() {
			if strings.Contains(l, "finished on node") {
				on = append(on, l[:strings.Index(l, "]")+1])
			}
		}
		return on
	}

	tid, c := spawn(t, "partition:0-2@0..50000", 2)
	if tid == 0 {
		t.Fatalf("spawn to a partitioned rank failed instead of falling back:\n%s", c.Trace().String())
	}
	if got := finished(c); len(got) != 1 || got[0] != "[node3]" {
		t.Fatalf("spawned worker finished on %v, want [node3] — the next rank after 2", got)
	}
	if s := c.Stats(); s.RPCTimeouts != 1 {
		t.Fatalf("RPC timeouts = %d, want 1", s.RPCTimeouts)
	}

	tid, c = spawn(t, "partition:0-1@0..50000;partition:0-2@0..50000;partition:0-3@0..50000", 1)
	if tid != 0 {
		t.Fatalf("spawn with every peer unreachable returned tid %#x, want 0", tid)
	}
	if got := finished(c); len(got) != 0 {
		t.Fatalf("a discarded spawn request still ran a thread: %v", got)
	}
	if s := c.Stats(); s.RPCTimeouts != 3 {
		t.Fatalf("RPC timeouts = %d, want 3 — one per peer tried", s.RPCTimeouts)
	}
}

// TestLateReplyTimeoutCompensates pins the claim policy of the call
// record: a reply that arrives after its call expired is not lost. A
// purchase acceptance the buyer already read as a decline is given back
// to the seller, and a lock grant its waiter walked away from is
// released — so no slot is left owned by nobody and no lock stays held.
func TestLateReplyTimeoutCompensates(t *testing.T) {
	t.Run("purchase", func(t *testing.T) {
		c := New(Config{Nodes: 4, RPCTimeout: -1}, progs.NewImage())
		seller := c.Node(1)
		stalled, gaveBack := false, false
		seller.buyHook = func(src int, giveBack bool) bool {
			if !giveBack && !stalled {
				// Serve the first purchase, but only after the buyer's
				// deadline: the acceptance arrives late.
				stalled = true
				seller.actor.Charge(simtime.Millisecond)
			}
			gaveBack = gaveBack || (giveBack && src == 0)
			return false
		}
		if !negotiateSync(t, c, 0, 3) {
			t.Fatal("the negotiation failed")
		}
		if !stalled || !gaveBack || c.Stats().RPCTimeouts == 0 {
			t.Fatalf("stalled=%v gave back=%v timeouts=%d: the late acceptance was never compensated",
				stalled, gaveBack, c.Stats().RPCTimeouts)
		}
		if got := freeSlotTotal(c); got != layout.SlotCount {
			t.Fatalf("owned-free total %d, want %d: a late sale left slots owned by nobody", got, layout.SlotCount)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("lock", func(t *testing.T) {
		c := New(Config{Nodes: 4, RPCTimeout: -1}, progs.NewImage())
		// Node 2 holds the global lock past node 1's whole patience.
		hold := c.Node(1).lockPatience() + simtime.Millisecond
		c.At(2, func(n *Node) {
			var held []int
			n.lock(sectionKey, func() {
				held = append(held, sectionKey)
				n.actor.PostAfter(hold, func() { n.unlockAll(&held) })
			}, func() { t.Error("node 2: lock timed out") })
		})
		granted, timedOut := false, false
		c.Engine().At(10*simtime.Microsecond, func() {
			c.At(1, func(n *Node) {
				n.lock(sectionKey, func() { granted = true }, func() { timedOut = true })
			})
		})
		c.Run(0)
		if granted || !timedOut {
			t.Fatalf("granted=%v timed out=%v, want a timeout only", granted, timedOut)
		}
		if err := c.CheckDrained(); err != nil {
			t.Fatalf("the late grant was not released: %v", err)
		}
	})
}
