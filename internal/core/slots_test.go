package core

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/layout"
	"repro/internal/vmem"
)

// bitmapT shortens CheckSingleOwnership call sites.
type bitmapT = bitmap.Bitmap

func newSlots(t *testing.T, node, p int, dist Distribution, cache int) *NodeSlots {
	t.Helper()
	return NewNodeSlots(vmem.NewSpace(), NopCharger{}, NodeConfig{
		NodeID: node, NumNodes: p, Dist: dist, CacheCap: cache,
	})
}

// TestDistributions: for every distribution and every cluster size
// p = 1..33, the bitmaps Mark builds partition the iso-address area —
// every slot is owned by exactly one node — and each slot goes to the
// node the distribution's definition names.
func TestDistributions(t *testing.T) {
	cases := []struct {
		dist  Distribution
		owner func(slot, p int) int
	}{
		{RoundRobin{}, func(slot, p int) int { return slot % p }},
		{BlockCyclic{K: 8}, func(slot, p int) int { return (slot / 8) % p }},
		{BlockCyclic{K: 3}, func(slot, p int) int { return (slot / 3) % p }}, // K does not divide SlotCount
		{BlockCyclic{K: 1 << 62}, func(slot, p int) int { return 0 }},        // one block covers the area
		{Partition{}, func(slot, p int) int { return min(slot/(layout.SlotCount/p), p-1) }},
	}
	for _, c := range cases {
		t.Run(c.dist.Name(), func(t *testing.T) {
			for p := 1; p <= 33; p++ {
				union := bitmap.New(layout.SlotCount)
				for node := 0; node < p; node++ {
					bm := bitmap.New(layout.SlotCount)
					c.dist.Mark(bm, node, p)
					if union.Intersects(bm) {
						t.Fatalf("p=%d: node %d marks a slot another node owns", p, node)
					}
					union.Or(bm)
					for slot := bm.FirstSet(0); slot >= 0; slot = bm.FirstSet(slot + 1) {
						if want := c.owner(slot, p); want != node {
							t.Fatalf("p=%d: slot %d marked by node %d, owner is %d", p, slot, node, want)
						}
					}
				}
				if got := union.Count(); got != layout.SlotCount {
					t.Fatalf("p=%d: %d of %d slots owned", p, got, layout.SlotCount)
				}
			}
		})
	}
}

// TestDistributionMarksMatchPerBit: Mark writes whole words (SetEvery,
// SetRun); for every node of clusters whose size divides a word, does
// not, or exceeds one, each distribution must mark exactly the slots a
// one-bit-at-a-time loop over its definition marks.
func TestDistributionMarksMatchPerBit(t *testing.T) {
	perBit := map[string]func(bm *bitmap.Bitmap, node, p int){
		"round-robin": func(bm *bitmap.Bitmap, node, p int) {
			for i := node; i < layout.SlotCount; i += p {
				bm.Set(i)
			}
		},
		"block-cyclic(8)": func(bm *bitmap.Bitmap, node, p int) {
			for i := node * 8; i < layout.SlotCount; i += p * 8 {
				for j := i; j < min(i+8, layout.SlotCount); j++ {
					bm.Set(j)
				}
			}
		},
		"partition": func(bm *bitmap.Bitmap, node, p int) {
			for i := 0; i < layout.SlotCount; i++ {
				if min(i/(layout.SlotCount/p), p-1) == node {
					bm.Set(i)
				}
			}
		},
	}
	empty := bitmap.New(layout.SlotCount)
	got, want := bitmap.New(layout.SlotCount), bitmap.New(layout.SlotCount)
	for _, dist := range []Distribution{RoundRobin{}, BlockCyclic{K: 8}, Partition{}} {
		ref := perBit[dist.Name()]
		for _, p := range []int{1, 2, 3, 7, 64, 65, 1024, 4096} {
			// The partition reference scans the whole area: check every
			// node of the small clusters and a spread of the large ones.
			step := 1
			if dist.Name() == "partition" && p > 65 {
				step = p / 16
			}
			for node := 0; node < p; node += step {
				got.CopyFrom(empty)
				want.CopyFrom(empty)
				dist.Mark(got, node, p)
				ref(want, node, p)
				if !got.Equal(want) {
					t.Fatalf("%s p=%d node %d: Mark sets %d slots, per-bit reference %d",
						dist.Name(), p, node, got.Count(), want.Count())
				}
			}
		}
	}
}

// BenchmarkRoundRobinMark measures building one node's initial ownership
// bitmap under the paper's round-robin distribution in a 2-node cluster
// — the per-node share of every cluster setup and restore.
func BenchmarkRoundRobinMark(b *testing.B) {
	bm := bitmap.New(layout.SlotCount)
	for b.Loop() {
		RoundRobin{}.Mark(bm, 1, 2)
	}
}

func TestRoundRobinNeverHasContiguousPair(t *testing.T) {
	// The property behind the paper's "every multi-slot allocation
	// negotiates under round-robin" observation (§5).
	ns := newSlots(t, 0, 2, RoundRobin{}, 0)
	if _, err := ns.AcquireRun(2); err != ErrNoSlots {
		t.Fatalf("AcquireRun(2) = %v, want ErrNoSlots", err)
	}
	if ns.Stats().RunSearchFail != 1 {
		t.Fatalf("stats = %+v", ns.Stats())
	}
}

func TestAcquireOneMapsSlot(t *testing.T) {
	ns := newSlots(t, 0, 2, RoundRobin{}, 0)
	idx, err := ns.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	if idx%2 != 0 {
		t.Fatalf("node 0 acquired slot %d not owned under RR", idx)
	}
	if ns.Bitmap().Test(idx) {
		t.Fatal("acquired slot still marked free")
	}
	if !ns.Space().IsMapped(layout.SlotBase(idx), layout.SlotSize) {
		t.Fatal("acquired slot not mapped")
	}
	st := ns.Stats()
	if st.Acquired != 1 || st.Mmaps != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReleaseWithoutCacheUnmaps(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 0)
	idx, err := ns.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.Release(idx, 1); err != nil {
		t.Fatal(err)
	}
	if ns.Space().IsMapped(layout.SlotBase(idx), 1) {
		t.Fatal("released slot still mapped with cache disabled")
	}
	if !ns.Bitmap().Test(idx) {
		t.Fatal("released slot not marked free")
	}
}

func TestSlotCacheAvoidsMmap(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 4)
	idx, err := ns.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.Release(idx, 1); err != nil {
		t.Fatal(err)
	}
	if ns.CachedSlots() != 1 {
		t.Fatalf("cached = %d", ns.CachedSlots())
	}
	if !ns.Space().IsMapped(layout.SlotBase(idx), layout.SlotSize) {
		t.Fatal("cached slot should stay mapped")
	}
	idx2, err := ns.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	if idx2 != idx {
		t.Fatalf("cache hit should reuse slot %d, got %d", idx, idx2)
	}
	st := ns.Stats()
	if st.CacheHits != 1 || st.Mmaps != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCachedSlotHoldsNoPage: a slot released into the cache stays
// mapped but gives its host pages to the space's free list, so it is
// handed out again reading zeros; CheckCache fails on a cached slot
// that holds a page.
func TestCachedSlotHoldsNoPage(t *testing.T) {
	pages := vmem.NewPages(4)
	ns := NewNodeSlots(vmem.NewSpaceOn(pages), NopCharger{}, NodeConfig{NodeID: 0, NumNodes: 1, CacheCap: 4})
	idx, err := ns.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	base := layout.SlotBase(idx)
	if err := ns.Space().Store32(base+layout.PageSize, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	if err := ns.Release(idx, 1); err != nil {
		t.Fatal(err)
	}
	if got := ns.Space().BackedPages(base, layout.SlotSize); got != 0 {
		t.Fatalf("a cached slot holds %d host pages, want 0", got)
	}
	if err := ns.CheckCache(); err != nil {
		t.Fatal(err)
	}
	if !vmem.Poison && pages.Len() != 1 {
		t.Fatalf("the free list holds %d pages, want the slot's one", pages.Len())
	}
	if st := ns.Stats(); st.Munmaps != 0 {
		t.Fatalf("caching a slot unmapped it: %+v", st)
	}
	if _, err := ns.AcquireOne(); err != nil {
		t.Fatal(err)
	}
	if v, err := ns.Space().Load32(base + layout.PageSize); err != nil || v != 0 {
		t.Fatalf("a reused cached slot reads %#x, %v, want 0", v, err)
	}
	if err := ns.Release(idx, 1); err != nil {
		t.Fatal(err)
	}
	if err := ns.Space().Store32(base, 1); err != nil {
		t.Fatal(err)
	}
	if err := ns.CheckCache(); err == nil {
		t.Fatal("CheckCache accepts a cached slot that holds a host page")
	}
}

func TestCacheCapRespected(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 2)
	var idxs []int
	for i := 0; i < 4; i++ {
		idx, err := ns.AcquireOne()
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, idx)
	}
	for _, idx := range idxs {
		if err := ns.Release(idx, 1); err != nil {
			t.Fatal(err)
		}
	}
	if ns.CachedSlots() != 2 {
		t.Fatalf("cached = %d, want cap 2", ns.CachedSlots())
	}
	st := ns.Stats()
	if st.Munmaps != 2 {
		t.Fatalf("stats = %+v, want 2 munmaps", st)
	}
}

func TestAcquireRunFirstFit(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 0)
	start, err := ns.AcquireRun(4)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("first-fit run = %d, want 0", start)
	}
	if !ns.Space().IsMapped(layout.SlotBase(start), 4*layout.SlotSize) {
		t.Fatal("run not fully mapped")
	}
	// Next run must come after.
	start2, err := ns.AcquireRun(2)
	if err != nil {
		t.Fatal(err)
	}
	if start2 != 4 {
		t.Fatalf("second run = %d, want 4", start2)
	}
}

func TestAcquireRunConsumesCachedSlots(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 8)
	// Seed the cache with slots 0 and 1.
	a, _ := ns.AcquireOne()
	b, _ := ns.AcquireOne()
	ns.Release(a, 1)
	ns.Release(b, 1)
	if ns.CachedSlots() != 2 {
		t.Fatalf("cached = %d", ns.CachedSlots())
	}
	start, err := ns.AcquireRun(3)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("run start = %d", start)
	}
	if ns.CachedSlots() != 0 {
		t.Fatal("cached slots not consumed by run")
	}
	if !ns.Space().IsMapped(layout.SlotBase(0), 3*layout.SlotSize) {
		t.Fatal("run not fully mapped")
	}
}

func TestBuySellRun(t *testing.T) {
	a := newSlots(t, 0, 2, RoundRobin{}, 0)
	b := newSlots(t, 1, 2, RoundRobin{}, 0)
	// Node 0 buys slot 1 (owned by node 1) to get a [0,2) run.
	if err := b.SellRun(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.BuyRun(1, 1); err != nil {
		t.Fatal(err)
	}
	if CheckSingleOwnership([]*bitmapT{a.Bitmap(), b.Bitmap()}) != -1 {
		t.Fatal("double ownership after buy/sell")
	}
	start, err := a.AcquireRun(2)
	if err != nil || start != 0 {
		t.Fatalf("post-purchase AcquireRun = %d, %v", start, err)
	}
}

func TestSellRunRejectsUnowned(t *testing.T) {
	b := newSlots(t, 1, 2, RoundRobin{}, 0)
	if err := b.SellRun(0, 1); err == nil {
		t.Fatal("selling an unowned slot must fail")
	}
}

func TestBuyRunRejectsOverlap(t *testing.T) {
	a := newSlots(t, 0, 2, RoundRobin{}, 0)
	if err := a.BuyRun(0, 1); err == nil {
		t.Fatal("buying an already-owned slot must fail")
	}
}

// buyRunFixture is node 0 of 128 round-robin nodes: it owns slots 0
// and 128, so the run [40,100) — which crosses a bitmap word boundary —
// is all purchasable.
func buyRunFixture() *NodeSlots {
	return NewNodeSlots(vmem.NewSpace(), NopCharger{}, NodeConfig{
		NodeID: 0, NumNodes: 128, Dist: RoundRobin{},
	})
}

// TestBuyRunAllocations: CanBuyRun and BuyRun test the run word-wise
// instead of building a run-sized mask, so a purchase allocates nothing
// on the host.
func TestBuyRunAllocations(t *testing.T) {
	ns := buyRunFixture()
	if !ns.CanBuyRun(40, 60) || ns.CanBuyRun(100, 30) {
		t.Fatal("CanBuyRun disagrees with the round-robin ownership")
	}
	if allocs := testing.AllocsPerRun(100, func() { ns.CanBuyRun(40, 60) }); allocs != 0 {
		t.Errorf("CanBuyRun: %.1f allocations per call, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ns.BuyRun(40, 60); err != nil {
			t.Fatal(err)
		}
		if err := ns.SellRun(40, 60); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("BuyRun+SellRun: %.1f allocations per pair, want 0", allocs)
	}
}

// BenchmarkBuyRun measures one purchase of a 60-slot run crossing a
// word boundary, paired with the sale that undoes it.
func BenchmarkBuyRun(b *testing.B) {
	ns := buyRunFixture()
	for b.Loop() {
		if err := ns.BuyRun(40, 60); err != nil {
			b.Fatal(err)
		}
		if err := ns.SellRun(40, 60); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSellRunEvictsCachedMapping(t *testing.T) {
	a := newSlots(t, 0, 1, RoundRobin{}, 4)
	idx, _ := a.AcquireOne()
	a.Release(idx, 1)
	if a.CachedSlots() != 1 {
		t.Fatal("expected cached slot")
	}
	if err := a.SellRun(idx, 1); err != nil {
		t.Fatal(err)
	}
	if a.Space().IsMapped(layout.SlotBase(idx), 1) {
		t.Fatal("sold slot must be unmapped locally")
	}
	if a.CachedSlots() != 0 {
		t.Fatal("sold slot still cached")
	}
}

func TestEvictInstallKeepBitmapUntouched(t *testing.T) {
	src := newSlots(t, 0, 2, RoundRobin{}, 0)
	dst := newSlots(t, 1, 2, RoundRobin{}, 0)
	idx, err := src.AcquireOne()
	if err != nil {
		t.Fatal(err)
	}
	srcBits, dstBits := src.Bitmap().Count(), dst.Bitmap().Count()
	if err := src.Evict(idx, 1); err != nil {
		t.Fatal(err)
	}
	if err := dst.Install(idx, 1); err != nil {
		t.Fatal(err)
	}
	if src.Bitmap().Count() != srcBits || dst.Bitmap().Count() != dstBits {
		t.Fatal("migration changed a bitmap (paper §4.2 forbids this)")
	}
	if src.Space().IsMapped(layout.SlotBase(idx), 1) {
		t.Fatal("evicted slot still mapped at source")
	}
	if !dst.Space().IsMapped(layout.SlotBase(idx), layout.SlotSize) {
		t.Fatal("installed slot not mapped at destination")
	}
	// Releasing on the destination donates the slot there (paper §4.2:
	// "the destination node may eventually acquire slots that it did not
	// possess initially").
	if err := dst.Release(idx, 1); err != nil {
		t.Fatal(err)
	}
	if !dst.Bitmap().Test(idx) {
		t.Fatal("destination did not acquire the donated slot")
	}
	if CheckSingleOwnership([]*bitmapT{src.Bitmap(), dst.Bitmap()}) != -1 {
		t.Fatal("double ownership after donation")
	}
}

func TestAcquireAt(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 0)
	if err := ns.AcquireAt(10, 3); err != nil {
		t.Fatal(err)
	}
	if !ns.Space().IsMapped(layout.SlotBase(10), 3*layout.SlotSize) {
		t.Fatal("AcquireAt did not map")
	}
	if err := ns.AcquireAt(10, 1); err == nil {
		t.Fatal("AcquireAt on taken slots must fail")
	}
}

func TestDropCache(t *testing.T) {
	ns := newSlots(t, 0, 1, RoundRobin{}, 4)
	idx, _ := ns.AcquireOne()
	ns.Release(idx, 1)
	ns.DropCache()
	if ns.CachedSlots() != 0 || ns.Space().IsMapped(layout.SlotBase(idx), 1) {
		t.Fatal("DropCache left mappings")
	}
	if !ns.Bitmap().Test(idx) {
		t.Fatal("DropCache must not change ownership")
	}
}

func TestExhaustionReturnsErrNoSlots(t *testing.T) {
	// A 1-node partition where we steal all slots via SellRun, then ask.
	ns := newSlots(t, 0, 1, Partition{}, 0)
	if err := ns.SellRun(0, layout.SlotCount); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.AcquireOne(); err != ErrNoSlots {
		t.Fatalf("err = %v, want ErrNoSlots", err)
	}
}
