package core

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/layout"
)

func emptyMaps(p int) []*bitmap.Bitmap {
	maps := make([]*bitmap.Bitmap, p)
	for i := range maps {
		maps[i] = bitmap.New(layout.SlotCount)
	}
	return maps
}

func rrMaps(p int) []*bitmap.Bitmap {
	maps := emptyMaps(p)
	for i := 0; i < layout.SlotCount; i++ {
		maps[i%p].Set(i)
	}
	return maps
}

func TestPlanPurchaseRoundRobinTwoNodes(t *testing.T) {
	maps := rrMaps(2)
	p, ok := PlanPurchase(maps, 4, 0)
	if !ok {
		t.Fatal("purchase should succeed")
	}
	if p.Start != 0 || p.N != 4 {
		t.Fatalf("run = [%d,+%d), want [0,+4)", p.Start, p.N)
	}
	// Node 0 owns slots 0 and 2; node 1 sells 1 and 3.
	if len(p.Sellers) != 2 {
		t.Fatalf("sellers = %+v", p.Sellers)
	}
	for i, want := range []SellerShare{{Node: 1, Start: 1, N: 1}, {Node: 1, Start: 3, N: 1}} {
		if p.Sellers[i] != want {
			t.Fatalf("seller %d = %+v, want %+v", i, p.Sellers[i], want)
		}
	}
}

func TestPlanPurchaseMergesContiguousSellerShares(t *testing.T) {
	maps := emptyMaps(3)
	// Layout: node0 owns 0; node1 owns 1,2,3; node2 owns 4,5.
	maps[0].Set(0)
	maps[1].SetRun(1, 3)
	maps[2].SetRun(4, 2)
	p, ok := PlanPurchase(maps, 6, 0)
	if !ok {
		t.Fatal("expected success")
	}
	want := []SellerShare{{Node: 1, Start: 1, N: 3}, {Node: 2, Start: 4, N: 2}}
	if len(p.Sellers) != 2 || p.Sellers[0] != want[0] || p.Sellers[1] != want[1] {
		t.Fatalf("sellers = %+v, want %+v", p.Sellers, want)
	}
}

func TestPlanPurchaseSkipsBusySlots(t *testing.T) {
	maps := emptyMaps(2)
	// Free slots: 0 (node0), 1 (node1), gap at 2 (busy: some thread owns
	// it), 3..6 free on node 0.
	maps[0].Set(0)
	maps[1].Set(1)
	maps[0].SetRun(3, 4)
	p, ok := PlanPurchase(maps, 3, 1)
	if !ok {
		t.Fatal("expected success")
	}
	if p.Start != 3 {
		t.Fatalf("run should skip the busy gap: start = %d", p.Start)
	}
	if len(p.Sellers) != 1 || p.Sellers[0] != (SellerShare{Node: 0, Start: 3, N: 3}) {
		t.Fatalf("sellers = %+v", p.Sellers)
	}
}

func TestPlanPurchaseRequesterOwnsEverything(t *testing.T) {
	maps := emptyMaps(2)
	maps[0].SetRun(10, 8)
	p, ok := PlanPurchase(maps, 8, 0)
	if !ok || p.Start != 10 || len(p.Sellers) != 0 {
		t.Fatalf("p = %+v ok=%v, want no sellers", p, ok)
	}
}

func TestPlanPurchaseFailsWhenNoRunExists(t *testing.T) {
	maps := emptyMaps(2)
	// Only isolated free slots.
	for i := 0; i < 100; i += 2 {
		maps[i%2].Set(i)
	}
	if _, ok := PlanPurchase(maps, 2, 0); ok {
		t.Fatal("no contiguous pair exists; purchase must fail")
	}
}

func TestPlanPurchaseFirstFit(t *testing.T) {
	maps := emptyMaps(2)
	maps[0].SetRun(100, 2)
	maps[1].SetRun(50, 2)
	p, ok := PlanPurchase(maps, 2, 0)
	if !ok || p.Start != 50 {
		t.Fatalf("first-fit = %d, want 50 (the earliest run, regardless of owner)", p.Start)
	}
}

func TestPlanPurchaseDoubleOwnershipPanics(t *testing.T) {
	maps := emptyMaps(2)
	maps[0].SetRun(0, 2)
	maps[1].Set(1) // violation
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double ownership")
		}
	}()
	PlanPurchase(maps, 2, 0)
}

func TestCheckSingleOwnership(t *testing.T) {
	maps := rrMaps(4)
	if got := CheckSingleOwnership(maps); got != -1 {
		t.Fatalf("clean round-robin reported violation at %d", got)
	}
	maps[2].Set(3) // slot 3 belongs to node 3 under RR(4)
	if got := CheckSingleOwnership(maps); got != 3 {
		t.Fatalf("violation index = %d, want 3", got)
	}
	if CheckSingleOwnership(maps[:1]) != -1 {
		t.Fatal("single map can't violate")
	}
}

// TestPurchaseAt splits one run both ways. On torn maps (slot 0 shown
// at nodes 1 and 2, slot 1 at the requester and node 2) the loose split
// resolves a duplicate to the requester, then to the lowest rank, and
// the strict split panics. On clean maps the two splits agree.
func TestPurchaseAt(t *testing.T) {
	maps := []*bitmap.Bitmap{bitmap.New(64), bitmap.New(64), bitmap.New(64)}
	maps[1].Set(0)
	maps[2].Set(0)
	maps[0].Set(1)
	maps[2].Set(1)
	maps[2].SetRun(2, 2)

	p := PurchaseAt(maps, 0, 4, 0, true)
	want := []SellerShare{{Node: 1, Start: 0, N: 1}, {Node: 2, Start: 2, N: 2}}
	if p.Start != 0 || p.N != 4 || len(p.Sellers) != 2 || p.Sellers[0] != want[0] || p.Sellers[1] != want[1] {
		t.Fatalf("loose split = %+v, want sellers %+v", p, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("strict split of torn maps did not panic")
			}
		}()
		PurchaseAt(maps, 0, 4, 0, false)
	}()

	clean := rrMaps(3)
	strict, loose := PurchaseAt(clean, 5, 4, 1, false), PurchaseAt(clean, 5, 4, 1, true)
	if len(strict.Sellers) != 3 || len(loose.Sellers) != 3 {
		t.Fatalf("clean splits = %+v and %+v, want 3 sellers each", strict, loose)
	}
	for i := range strict.Sellers {
		if strict.Sellers[i] != loose.Sellers[i] {
			t.Fatalf("clean splits differ: %+v vs %+v", strict, loose)
		}
	}
}
