package policy

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/simtime"
)

// Purchase-plan ranking for the sharded negotiation arbiter.
//
// The paper's protocol commits to the first-fit run of the global OR,
// which under a shared lock is harmless: nobody else is negotiating, so
// the only cost dimension is the run itself. Once negotiations run
// concurrently (sharded arbiter), the *shape* of the plan matters:
// every distinct seller is one more purchase round trip and one more
// bitmap a racing allocation can invalidate. The planner therefore
// ranks candidate runs fewest-owners-first, priced through the cost
// model, and keeps scan order (locality: the candidate nearest the
// initiator's home region) as the tie-break.

// purchaseWireBytes approximates the purchase message footprint per
// seller: the op word, share count and one packed share.
const purchaseWireBytes = 4 + 4 + 8

// PurchasePlanCost estimates the protocol cost of executing plan p: one
// request/reply round trip per distinct seller.
func PurchasePlanCost(p core.Purchase, m *cost.Model) simtime.Time {
	return simtime.Time(p.Owners()) * m.RoundTrip(purchaseWireBytes, 4)
}

// CheapestPurchase returns the index of the cheapest candidate under
// PurchasePlanCost; ties keep the earliest candidate (scan order, i.e.
// closest to the search origin). The slice must be non-empty.
func CheapestPurchase(cands []core.Purchase, m *cost.Model) int {
	best, bestCost := 0, PurchasePlanCost(cands[0], m)
	for i := 1; i < len(cands); i++ {
		if c := PurchasePlanCost(cands[i], m); c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}
