package pm2

import "fmt"

// The §4.4 bitmap gather is the dominant term of the negotiation cost:
// the paper's sequential one-peer-at-a-time protocol is what produces the
// "+165 µs per extra node" slope. This file holds the pluggable gather
// strategies (Config.Gather) and the combining-tree topology.

// GatherMode selects how a negotiation initiator collects the other
// nodes' slot bitmaps (paper §4.4, step 2b).
type GatherMode int

const (
	// GatherSequential is the paper-faithful default: one bitmap Call
	// per peer, each waiting for the previous reply. Cost grows with
	// the sum of the per-peer round trips.
	GatherSequential GatherMode = iota
	// GatherTree routes the gather through a binomial combining tree
	// rooted at the initiator: interior nodes OR their children's
	// bitmaps into their own before forwarding one merged map up, so
	// the initiator receives O(log n) messages. The merged map loses
	// per-slot ownership, so the purchase becomes a range buy: every
	// peer is asked to sell its intersection with the chosen run. While
	// any rank is down or suspected the round degrades to GatherDelta.
	GatherTree
	// GatherDelta is the incremental gather, and the only flat
	// concurrent one: a single round of concurrent Calls whose reply
	// wire time overlaps. Every node version-stamps its bitmap and
	// journals the words each mutation dirtied; the initiator caches
	// each peer's last-seen map plus version and asks only for the
	// changes since then. Peers reply "unchanged", a
	// word-indexed delta, or a full map (first contact, or the bounded
	// journal truncated), and the initiator patches its cached global
	// OR in place — so the per-peer merge is charged on delta bytes,
	// not on the full 7 KB map.
	GatherDelta
)

func (g GatherMode) String() string {
	switch g {
	case GatherTree:
		return "tree"
	case GatherDelta:
		return "delta"
	}
	return "sequential"
}

// ParseGatherMode resolves a gather strategy name. Empty selects the
// paper-faithful sequential gather.
func ParseGatherMode(s string) (GatherMode, error) {
	switch s {
	case "", "sequential", "seq":
		return GatherSequential, nil
	case "tree":
		return GatherTree, nil
	case "delta", "incremental":
		return GatherDelta, nil
	}
	return GatherSequential, fmt.Errorf("pm2: unknown gather strategy %q (have %v)", s, GatherModeNames())
}

// GatherModeNames lists the canonical gather strategy names.
func GatherModeNames() []string { return []string{"sequential", "tree", "delta"} }

// treeChildren returns the ranks node self fans out to in the binomial
// combining tree rooted at root, in an n-node cluster. Ranks are
// relabeled rel = (self-root) mod n; rel's children are rel+2^j for every
// 2^j below rel's lowest set bit (all powers of two below n for the
// root), clipped to the cluster. The root therefore has ceil(log2(n))
// children, and every node appears in exactly one subtree.
func treeChildren(self, root, n int) []int {
	rel := ((self-root)%n + n) % n
	limit := rel & -rel
	if rel == 0 {
		limit = n
	}
	var out []int
	for bit := 1; bit < limit && rel+bit < n; bit <<= 1 {
		out = append(out, (rel+bit+root)%n)
	}
	return out
}

// subtreeRanks returns every rank in the binomial subtree rooted at node
// self (inclusive), for the tree rooted at root. Relabeled, the subtree
// of rel covers [rel, rel+lowbit(rel)), clipped to the cluster.
func subtreeRanks(self, root, n int) []int {
	rel := ((self-root)%n + n) % n
	size := rel & -rel
	if rel == 0 {
		size = n
	}
	if rel+size > n {
		size = n - rel
	}
	out := make([]int, 0, size)
	for i := 0; i < size; i++ {
		out = append(out, (rel+i+root)%n)
	}
	return out
}
