package core

import (
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/layout"
)

// Negotiation planning (paper §4.4, step 2). The communication — entering
// the system-wide critical section, gathering bitmaps, sending purchase
// orders — is carried out by the runtime over Madeleine; this file holds the
// pure protocol arithmetic so it can be tested exhaustively in isolation.

// SellerShare is one seller's contribution to a purchased run.
type SellerShare struct {
	Node  int
	Start int
	N     int
}

// Purchase is the outcome of planning a multi-slot acquisition.
type Purchase struct {
	// Start and N identify the chosen run of contiguous slots.
	Start int
	N     int
	// Sellers lists the non-requester nodes to buy sub-runs from, in
	// slot order. Slots already owned by the requester are not listed.
	Sellers []SellerShare
}

// PlanPurchase computes a global OR of the gathered per-node bitmaps,
// first-fit searches it for n contiguous free slots, and splits the chosen
// run into per-owner shares. maps[i] must be node i's bitmap, or nil for a
// node that was not gathered (a peer that is down or did not answer);
// requester identifies the initiating node. ok is false when no run exists
// anywhere — the allocation fails (out of iso-address memory).
func PlanPurchase(maps []*bitmap.Bitmap, n, requester int) (Purchase, bool) {
	return PlanPurchaseOn(GlobalOr(maps), maps, n, requester)
}

// GlobalOr returns the OR of the gathered per-node bitmaps (nil entries
// are skipped) — the paper's step 2c as one explicit value, so a caller
// that caches the global view between rounds (the delta gather) can
// reuse it instead of recomputing the merge.
func GlobalOr(maps []*bitmap.Bitmap) *bitmap.Bitmap {
	global := bitmap.New(layout.SlotCount)
	for _, m := range maps {
		if m != nil {
			global.Or(m)
		}
	}
	return global
}

// PlanPurchaseOn is PlanPurchase searching a caller-provided global map,
// which must be the OR of maps.
func PlanPurchaseOn(global *bitmap.Bitmap, maps []*bitmap.Bitmap, n, requester int) (Purchase, bool) {
	checkPlanArgs(maps, n, requester)
	start := global.FindRun(n)
	if start < 0 {
		return Purchase{}, false
	}
	return purchaseAt(maps, start, n, requester), true
}

// PlanCandidatesOn enumerates up to max candidate purchases of n
// contiguous slots, scanning the global map from slot origin and
// wrapping past the end — one candidate per maximal free region, in
// scan order. The sharded arbiter uses it to pick among runs by
// seller count (fewest-owners-first) instead of committing to the
// first fit, and the per-node origin spreads concurrent initiators
// over disjoint regions of the slot space so their shard sets rarely
// collide.
//
// Unlike PlanPurchaseOn, the maps here were gathered without any lock,
// so the snapshots may be mutually torn: a slot sold mid-gather can
// appear owned by both its old and its new owner. Ownership is
// therefore resolved loosely (deterministically preferring the
// requester's own authoritative map, then the lowest rank) — a wrong
// attribution surfaces as a purchase decline and a retried round,
// never as double ownership, because only the current owner will sell.
func PlanCandidatesOn(global *bitmap.Bitmap, maps []*bitmap.Bitmap, n, requester, origin, max int) []Purchase {
	checkPlanArgs(maps, n, requester)
	if max < 1 {
		max = 1
	}
	if origin < 0 || origin >= global.Len() {
		origin = 0
	}
	var out []Purchase
	scan := func(from, limit int) {
		i := from
		for len(out) < max {
			s := global.FindRunFrom(i, n)
			if s < 0 || s >= limit {
				return
			}
			out = append(out, purchaseAtLoose(maps, s, n, requester))
			// One candidate per maximal free region: skip to the end of
			// the region containing s before searching again.
			e := s + n
			for e < global.Len() && global.Test(e) {
				e++
			}
			i = e + 1
		}
	}
	scan(origin, global.Len())
	if len(out) < max && origin > 0 {
		scan(0, origin)
	}
	return out
}

// Owners returns the number of distinct sellers the purchase buys from.
func (p Purchase) Owners() int {
	seen := make(map[int]bool, len(p.Sellers))
	for _, sh := range p.Sellers {
		seen[sh.Node] = true
	}
	return len(seen)
}

func checkPlanArgs(maps []*bitmap.Bitmap, n, requester int) {
	if n <= 0 {
		panic("core: PlanPurchase with non-positive run")
	}
	if requester < 0 || requester >= len(maps) || maps[requester] == nil {
		panic(fmt.Sprintf("core: requester %d out of range", requester))
	}
}

// purchaseAt splits the chosen run [start, start+n) into per-owner
// seller shares (paper step 2d–2e), with the strict single-owner
// invariant of a lock-protected gather.
func purchaseAt(maps []*bitmap.Bitmap, start, n, requester int) Purchase {
	return splitRun(maps, start, n, requester, ownerOf)
}

// purchaseAtLoose is purchaseAt over possibly-torn unlocked snapshots:
// duplicate apparent owners resolve to the requester's own map first
// (it is local, hence authoritative), then to the lowest rank.
func purchaseAtLoose(maps []*bitmap.Bitmap, start, n, requester int) Purchase {
	return splitRun(maps, start, n, requester, func(maps []*bitmap.Bitmap, i int) int {
		return ownerOfLoose(maps, i, requester)
	})
}

func splitRun(maps []*bitmap.Bitmap, start, n, requester int, owner func([]*bitmap.Bitmap, int) int) Purchase {
	p := Purchase{Start: start, N: n}
	for i := start; i < start+n; {
		o := owner(maps, i)
		j := i
		for j < start+n && owner(maps, j) == o {
			j++
		}
		if o != requester {
			p.Sellers = append(p.Sellers, SellerShare{Node: o, Start: i, N: j - i})
		}
		i = j
	}
	return p
}

// ownerOfLoose returns a node whose bitmap has slot i set, preferring
// the requester (whose map is local and current) and then the lowest
// rank. Used over unlocked gathers, where torn snapshots may show two
// apparent owners; the purchase-time validation at the chosen seller
// catches a wrong pick.
func ownerOfLoose(maps []*bitmap.Bitmap, i, requester int) int {
	if maps[requester] != nil && maps[requester].Test(i) {
		return requester
	}
	for node, m := range maps {
		if m != nil && m.Test(i) {
			return node
		}
	}
	panic(fmt.Sprintf("core: slot %d in ORed run but owned by nobody", i))
}

// ownerOf returns the node whose bitmap has slot i set. Exactly one node
// may own a free slot; a duplicate is a broken invariant and panics.
func ownerOf(maps []*bitmap.Bitmap, i int) int {
	owner := -1
	for node, m := range maps {
		if m != nil && m.Test(i) {
			if owner >= 0 {
				panic(fmt.Sprintf("core: slot %d owned by both node %d and node %d", i, owner, node))
			}
			owner = node
		}
	}
	if owner < 0 {
		panic(fmt.Sprintf("core: slot %d in ORed run but owned by nobody", i))
	}
	return owner
}

// CheckSingleOwnership validates the global invariant that no slot is owned
// (free) by two nodes at once. It returns the index of the first violating
// slot, or -1.
func CheckSingleOwnership(maps []*bitmap.Bitmap) int {
	if len(maps) < 2 {
		return -1
	}
	seen := maps[0].Clone()
	for _, m := range maps[1:] {
		if seen.Intersects(m) {
			// locate it for the error message
			for i := 0; i < seen.Len(); i++ {
				if seen.Test(i) && m.Test(i) {
					return i
				}
			}
		}
		seen.Or(m)
	}
	return -1
}
