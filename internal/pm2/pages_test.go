package pm2

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/layout"
	"repro/internal/progs"
	"repro/internal/vmem"
)

// churnSrc is a short-lived thread: it isomallocs a cell, stores its
// argument there and exits, so its stack slot and data slot are backed
// by a few host pages and then released into the slot cache.
const churnSrc = `
.program churn
main:
    mov   r5, r1
    loadi r1, 64
    callb isomalloc
    store [r0], r5
    halt
`

// churn runs batches of four churn threads on node 0 of c, one batch
// at a time, until n threads have come and gone.
func churn(t *testing.T, c *Cluster, n int) {
	t.Helper()
	entry, ok := c.Image().EntryOf("churn")
	if !ok {
		t.Fatal("no churn program")
	}
	for done := 0; done < n; done += 4 {
		c.At(0, func(nd *Node) {
			for i := 0; i < 4; i++ {
				if _, err := nd.Scheduler().Create(entry, uint32(done+i)); err != nil {
					t.Fatal(err)
				}
			}
			nd.Kick()
		})
		c.Run(0)
	}
	if got := c.Node(0).Scheduler().Threads(); got != 0 {
		t.Fatalf("%d threads still resident", got)
	}
}

func churnCluster(t *testing.T) *Cluster {
	t.Helper()
	im := progs.NewImage()
	if _, err := asm.Assemble(im, churnSrc); err != nil {
		t.Fatal(err)
	}
	return New(Config{Nodes: 1}, im)
}

// TestThreadChurnAllocatesNoPage: once warm, one node's create/exit
// churn of 1,000 threads allocates no host page. Each exit discards
// the thread's slots into the slot cache, so their pages go to the
// cluster's free list, and the next thread's first writes take them
// back. Free slots holding their pages kept about 4 KB per cached slot
// alive instead.
func TestThreadChurnAllocatesNoPage(t *testing.T) {
	if vmem.Poison {
		t.Skip("a poison build retires released pages instead of pooling them")
	}
	c := churnCluster(t)
	churn(t, c, 64)
	made := c.pages.Made()
	churn(t, c, 1000)
	if got := c.pages.Made() - made; got != 0 {
		t.Fatalf("1,000 warm thread lifetimes allocated %d host pages, want 0", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCachedSlotsHoldNoPage: after churn the slot cache is full, no
// cached slot holds a host page, and CheckInvariants fails as soon as
// one does.
func TestCachedSlotsHoldNoPage(t *testing.T) {
	c := churnCluster(t)
	churn(t, c, 64)
	n := c.Node(0)
	if n.Slots().CachedSlots() == 0 {
		t.Fatal("churn left the slot cache empty; the test proves nothing")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A cached slot is mapped: write into the first free, mapped slot.
	idx := n.Slots().Bitmap().FirstSet(0)
	for ; idx >= 0 && !n.Space().IsMapped(layout.SlotBase(idx), layout.SlotSize); idx = n.Slots().Bitmap().FirstSet(idx + 1) {
	}
	if idx < 0 {
		t.Fatal("no cached slot is mapped")
	}
	if err := n.Space().Store32(layout.SlotBase(idx)+64, 1); err != nil {
		t.Fatal(err)
	}
	err := c.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "holds 1 host pages") {
		t.Fatalf("CheckInvariants = %v, want a cached slot holding a host page", err)
	}
}
