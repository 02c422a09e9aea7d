package pm2

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/progs"
	"repro/internal/simtime"
	"repro/internal/vmem"
)

// holdPatternSrc isomallocs r1 bytes, fills them with a thread-unique
// word pattern (seeded from the tid), then parks in a yield loop. The
// loop leaves registers and stack at the same values every iteration, so
// a thread frozen at any scheduling boundary has a time-invariant image —
// which is what lets the property test compare a convoy freeze against k
// staggered sequential freezes byte for byte.
const holdPatternSrc = `
.program holdpattern
main:
    enter 8
    store [fp-4], r1        ; size
    callb isomalloc
    store [fp-8], r0
    callb self_thread
    mov   r3, r0            ; pattern seed = tid
    load  r2, [fp-8]        ; p
    load  r4, [fp-4]
    add   r4, r2, r4        ; end
fill:
    bgeu  r2, r4, park
    store [r2], r3
    addi  r3, r3, 1
    addi  r2, r2, 4
    br    fill
park:
    callb yield
    br    park
`

// convoyImages stages k holdpattern threads on node 0, moves them all to
// node 1 — as one convoy or as k individual migrations — and returns each
// thread's full post-migration slot image (concatenated groups, read the
// instant the batch completes, before any destination quantum runs).
func convoyImages(t *testing.T, k int, pack PackMode, convoy bool) map[uint32][]byte {
	t.Helper()
	im := progs.NewImage()
	asm.MustAssemble(im, holdPatternSrc)
	c := New(Config{Nodes: 2, Pack: pack, Convoy: convoy, Dist: core.Partition{}}, im)
	entry, ok := im.EntryOf("holdpattern")
	if !ok {
		t.Fatal("holdpattern not registered")
	}
	for i := 0; i < k; i++ {
		size := uint32(3000 + 4096*i)
		c.At(0, func(n *Node) {
			if _, err := n.sched.Create(entry, size); err != nil {
				t.Errorf("create: %v", err)
			}
			n.kick()
		})
	}
	// Let every thread finish its fill and settle into the yield loop.
	c.RunFor(20 * simtime.Millisecond)

	var tids []uint32
	c.At(0, func(n *Node) {
		for _, th := range n.sched.Snapshot() {
			tids = append(tids, th.TID)
		}
	})
	if convoy {
		c.At(0, func(n *Node) {
			if moved := n.MigrateBatch(tids, 1); moved != k {
				t.Errorf("MigrateBatch moved %d of %d", moved, k)
			}
		})
	} else {
		c.At(0, func(n *Node) {
			for _, tid := range tids {
				if !n.sched.RequestMigration(tid, 1) {
					t.Errorf("thread %#x not found for migration", tid)
				}
			}
		})
	}
	for c.Stats().Migrations < k {
		if !c.Engine().Step() {
			t.Fatal("engine drained before the batch completed")
		}
	}
	if len(tids) != k {
		t.Fatalf("staged %d threads, want %d", len(tids), k)
	}

	// Read the images on the destination and validate pointer integrity:
	// every arena must pass its structural checks at the same addresses,
	// and the cluster-wide iso-address invariants must hold.
	dst := c.Node(1)
	images := make(map[uint32][]byte, k)
	for _, tid := range tids {
		th, ok := dst.sched.Lookup(tid)
		if !ok {
			t.Fatalf("thread %#x did not arrive on node 1", tid)
		}
		groups, err := dst.sched.Arena(th).Groups()
		if err != nil {
			t.Fatalf("thread %#x groups: %v", tid, err)
		}
		var img []byte
		for _, g := range groups {
			raw, err := dst.space.ReadBytes(g.Base, g.NSlots*layout.SlotSize)
			if err != nil {
				t.Fatalf("thread %#x group %#08x: %v", tid, g.Base, err)
			}
			img = append(img, raw...)
		}
		if err := core.CheckArena(dst.space, th.HeadAddr()); err != nil {
			t.Fatalf("thread %#x arena after migration: %v", tid, err)
		}
		images[tid] = img
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if convoy {
		if st := c.Stats(); st.Convoys != 1 {
			t.Fatalf("batch used %d convoy messages, want 1", st.Convoys)
		}
	}
	return images
}

// TestConvoyMatchesSequentialMigrations is the convoy correctness
// property: a k-thread convoy must produce byte-identical post-migration
// slot images — descriptor, stack, every isomalloc'd span, rebuilt free
// lists included — and identical pointer-integrity results, compared with
// the same k threads migrated by k sequential messages. Checked under
// both packing modes; used-blocks packing also exercises the free-list
// rebuild on the convoy path.
func TestConvoyMatchesSequentialMigrations(t *testing.T) {
	const k = 3
	for _, pack := range []PackMode{PackUsed, PackWhole} {
		t.Run(pack.String(), func(t *testing.T) {
			sequential := convoyImages(t, k, pack, false)
			convoy := convoyImages(t, k, pack, true)
			if len(sequential) != k || len(convoy) != k {
				t.Fatalf("image sets: sequential %d, convoy %d, want %d", len(sequential), len(convoy), k)
			}
			for tid, want := range sequential {
				got, ok := convoy[tid]
				if !ok {
					t.Fatalf("thread %#x missing from convoy run", tid)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("thread %#x: convoy slot image differs from sequential (%d vs %d bytes)",
						tid, len(got), len(want))
				}
			}
		})
	}
}

// TestConvoySingleMessageAccounting: a k-thread convoy is one wire
// message; the per-thread messages of the legacy path cost k. Payload
// accounting (Stats.MigratedBytes) must agree between the two paths.
func TestConvoySingleMessageAccounting(t *testing.T) {
	run := func(convoy bool) (msgs uint64, migrated uint64) {
		im := progs.NewImage()
		asm.MustAssemble(im, holdPatternSrc)
		c := New(Config{Nodes: 2, Convoy: convoy, Dist: core.Partition{}}, im)
		entry, _ := im.EntryOf("holdpattern")
		const k = 4
		for i := 0; i < k; i++ {
			c.At(0, func(n *Node) {
				if _, err := n.sched.Create(entry, 5000); err != nil {
					t.Errorf("create: %v", err)
				}
				n.kick()
			})
		}
		c.RunFor(10 * simtime.Millisecond)
		var tids []uint32
		c.At(0, func(n *Node) {
			for _, th := range n.sched.Snapshot() {
				tids = append(tids, th.TID)
			}
		})
		pre := c.Stats().Net.Messages
		c.At(0, func(n *Node) {
			if convoy {
				n.MigrateBatch(tids, 1)
				return
			}
			for _, tid := range tids {
				n.sched.RequestMigration(tid, 1)
			}
		})
		for c.Stats().Migrations < k {
			if !c.Engine().Step() {
				t.Fatal("engine drained early")
			}
		}
		st := c.Stats()
		return st.Net.Messages - pre, st.MigratedBytes
	}
	seqMsgs, seqBytes := run(false)
	convMsgs, convBytes := run(true)
	if seqMsgs != 4 {
		t.Fatalf("sequential batch used %d messages, want 4", seqMsgs)
	}
	if convMsgs != 1 {
		t.Fatalf("convoy batch used %d messages, want 1", convMsgs)
	}
	if seqBytes != convBytes {
		t.Fatalf("migrated payload differs: sequential %d B, convoy %d B", seqBytes, convBytes)
	}
}

// pingPongRun drives one ping-pong cluster to completion; the shared body
// of the zero-copy and allocation measurements below.
func pingPongRun(hops int, payload uint32, convoy bool) Stats {
	im := progs.NewImage()
	c := New(Config{Nodes: 2, Convoy: convoy}, im)
	prog := "pingpong"
	if payload > 0 {
		prog = "pingpongdata"
	}
	entry, _ := im.EntryOf(prog)
	c.At(0, func(n *Node) {
		th, err := n.sched.Create(entry, uint32(hops))
		if err != nil {
			panic(err)
		}
		th.Regs.R[2] = payload
		n.kick()
	})
	c.Run(0)
	st := c.Stats()
	if st.Migrations != hops {
		panic(fmt.Sprintf("pingPongRun: %d migrations, want %d", st.Migrations, hops))
	}
	return st
}

// TestZeroCopyPingPongReduction pins the headline acceptance figure: at a
// one-slot (64 KB) payload, the zero-copy pipeline must cut the ping-pong
// migration latency by at least 30% versus the copying path.
func TestZeroCopyPingPongReduction(t *testing.T) {
	legacy := pingPongRun(20, 64<<10, false).AvgMigrationMicros()
	zc := pingPongRun(20, 64<<10, true).AvgMigrationMicros()
	if zc >= legacy {
		t.Fatalf("zero-copy (%.1fµs) not below legacy (%.1fµs)", zc, legacy)
	}
	if reduction := 1 - zc/legacy; reduction < 0.30 {
		t.Fatalf("zero-copy reduction %.1f%% below the 30%% target (legacy %.1fµs, zero-copy %.1fµs)",
			100*reduction, legacy, zc)
	}
}

// TestMigrationBufferPoolReuse is the allocation guard for the buffer
// half of the pipeline: on a 50-hop ping-pong, the cluster's Madeleine
// pool must serve nearly every outgoing buffer from reuse — only the
// pool's warm-up misses may allocate. The counters are deterministic per
// run (the pool is per-cluster), so an exact ceiling holds.
func TestMigrationBufferPoolReuse(t *testing.T) {
	for _, convoy := range []bool{false, true} {
		im := progs.NewImage()
		c := New(Config{Nodes: 2, Convoy: convoy}, im)
		entry, _ := im.EntryOf("pingpong")
		c.At(0, func(n *Node) {
			if _, err := n.sched.Create(entry, 50); err != nil {
				t.Fatal(err)
			}
			n.kick()
		})
		c.Run(0)
		gets, hits := c.BufferPoolStats()
		if gets < 100 {
			t.Fatalf("convoy=%v: pool saw only %d gets — migration sends are not pooled", convoy, gets)
		}
		if misses := gets - hits; misses > 4 {
			t.Fatalf("convoy=%v: %d pool misses in %d gets — steady state still allocates", convoy, misses, gets)
		}
	}
}

// TestMigrationAllocationGuard pins the host-side allocation win of the
// pooled, borrowed-section data path: the marginal Go allocations per
// ping-pong hop must stay under a ceiling far below what the triple-copy
// path cost (measured ≈95 allocs/hop before pooling; ≈35 after, 33/37 on
// the copying/convoy paths with eager pages, 19/23 with demand-zero
// pages). Measured as a long-run/short-run difference so cluster
// construction cancels out.
func TestMigrationAllocationGuard(t *testing.T) {
	perHop := func(convoy bool) float64 {
		const short, long = 10, 110
		base := testing.AllocsPerRun(3, func() { pingPongRun(short, 0, convoy) })
		full := testing.AllocsPerRun(3, func() { pingPongRun(long, 0, convoy) })
		return (full - base) / float64(long-short)
	}
	const ceiling = 30.0
	if got := perHop(false); got > ceiling {
		t.Fatalf("legacy path allocates %.1f/hop, ceiling %.0f", got, ceiling)
	}
	if got := perHop(true); got > ceiling {
		t.Fatalf("zero-copy path allocates %.1f/hop, ceiling %.0f", got, ceiling)
	}
}

// TestMigrationHostBytesGuard pins the host memory a migration costs now
// that simulated pages are demand-zero: installing a thread's 64 KB stack
// slot maps 16 pages, but only the pages its shipped spans land on take
// host memory. Marginal runtime.MemStats.TotalAlloc per null ping-pong
// hop, long run minus short run, was ≈66.7 KB on both the copying and
// the convoy path with eager pages, ≈9.4 KB with demand-zero pages,
// ≈8.8 KB once messages below 8 KB reused their wire bodies, buffers and
// calls, and is ≈0.55 KB now that an install backs its pages from the
// ones the source's Evict returned to the cluster's free list; the
// ceiling, 1.5× that, fails as soon as an install allocates a page
// again. A poison build retires released pages, so it does not check
// the ceiling.
func TestMigrationHostBytesGuard(t *testing.T) {
	totalAlloc := func(hops int, convoy bool) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pingPongRun(hops, 0, convoy)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	perHop := func(convoy bool) float64 {
		const short, long = 10, 110
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			d := float64(totalAlloc(long, convoy)) - float64(totalAlloc(short, convoy))
			best = math.Min(best, d/float64(long-short))
		}
		return best
	}
	const ceiling = 546 * 3 / 2
	for _, convoy := range []bool{false, true} {
		got := perHop(convoy)
		t.Logf("convoy=%v: %.0f host bytes/hop", convoy, got)
		if got > ceiling && !vmem.Poison {
			t.Fatalf("convoy=%v: %.0f host bytes/hop, ceiling %d", convoy, got, ceiling)
		}
	}
}

// TestZeroPageSurvivesConvoyPingPong: a whole-slot convoy migration ships
// the untouched pages of the stack slot as aliases of the shared zero
// page, so any consumer on the pack, NIC or install path that wrote
// through a borrowed fragment would corrupt every untouched page of every
// space. After a ping-pong the zero page must still read all zero.
func TestZeroPageSurvivesConvoyPingPong(t *testing.T) {
	// An untouched page of a fresh space is the shared zero page itself.
	probe := vmem.NewSpace()
	if err := probe.Mmap(layout.IsoBase, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	frags, err := probe.ReadAliases(layout.IsoBase, layout.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	zero := frags[0]

	im := progs.NewImage()
	c := New(Config{Nodes: 2, Convoy: true, Pack: PackWhole}, im)
	entry, _ := im.EntryOf("pingpong")
	aliased := false
	c.At(0, func(n *Node) {
		th, err := n.sched.Create(entry, 20)
		if err != nil {
			t.Fatal(err)
		}
		slot, err := n.space.ReadAliases(th.StackBase(), layout.SlotSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range slot {
			aliased = aliased || &f[0] == &zero[0]
		}
		n.kick()
	})
	c.Run(0)
	if st := c.Stats(); st.Migrations != 20 {
		t.Fatalf("%d migrations, want 20", st.Migrations)
	}
	if !aliased {
		t.Fatal("the thread image has no untouched page; the test proves nothing")
	}
	if !bytes.Equal(zero, make([]byte, layout.PageSize)) {
		t.Fatal("the shared zero page was written through a migration alias")
	}
}
