package pm2

import (
	"strings"
	"testing"
)

// TestTreePartitionProperty is the exhaustive topology property: for
// every cluster size 1..33 and every root, the root's child subtrees
// plus the root itself partition the ranks — each rank in exactly one
// subtree — and the root's fan-out is ceil(log2 n).
func TestTreePartitionProperty(t *testing.T) {
	ceilLog2 := func(n int) int {
		k := 0
		for 1<<k < n {
			k++
		}
		return k
	}
	for n := 1; n <= 33; n++ {
		for root := 0; root < n; root++ {
			children := treeChildren(root, root, n)
			if got, want := len(children), ceilLog2(n); got != want {
				t.Fatalf("n=%d root=%d: fan-out %d, want ceil(log2 n) = %d", n, root, got, want)
			}
			seen := make([]int, n)
			seen[root]++
			for _, ch := range children {
				for _, r := range subtreeRanks(ch, root, n) {
					if r < 0 || r >= n {
						t.Fatalf("n=%d root=%d: subtree of %d names rank %d", n, root, ch, r)
					}
					seen[r]++
				}
			}
			for r, k := range seen {
				if k != 1 {
					t.Fatalf("n=%d root=%d: rank %d covered %d times — subtrees do not partition", n, root, r, k)
				}
			}
		}
	}
}

// TestParseGatherMode: every canonical name round-trips, and the names
// of the removed batched gather are unknown strategies, not aliases.
func TestParseGatherMode(t *testing.T) {
	for _, name := range GatherModeNames() {
		g, err := ParseGatherMode(name)
		if err != nil || g.String() != name {
			t.Errorf("ParseGatherMode(%q) = %v, %v", name, g, err)
		}
	}
	for _, name := range []string{"batched", "batch"} {
		_, err := ParseGatherMode(name)
		if err == nil || !strings.Contains(err.Error(), "unknown gather strategy") ||
			!strings.Contains(err.Error(), "[sequential tree delta]") {
			t.Errorf("ParseGatherMode(%q): error = %v, want the unknown-strategy error listing sequential, tree, delta", name, err)
		}
	}
}
