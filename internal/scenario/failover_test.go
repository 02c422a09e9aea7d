package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestFailoverTraceIdentity pins the failover acceptance property at the
// harness level: on a 16-node cluster losing one node mid-run, the
// canonical trace is byte-identical across both negotiation arbiters —
// node death, lease-expiry detection, convoy evacuation and slot
// reclaim are all deterministic, and none of them consults the arbiter
// (the workload never negotiates).
func TestFailoverTraceIdentity(t *testing.T) {
	var want string
	for _, arb := range []string{"", "sharded"} {
		name := fmt.Sprintf("arb=%q", arb)
		res, err := Run(Spec{Scenario: "failover", Nodes: 16, Arbiter: arb})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.TraceString()
		// Spec.Arbiter is not part of the recorded header line, so the
		// full trace must match.
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("%s: trace deviates from the first run:\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
	if !strings.Contains(want, "declared dead") {
		t.Fatalf("no node was declared dead at n=16:\n%s", want)
	}
}

// TestFailoverUnderAllPolicies runs the fail-stop workload under every
// placement policy and a spread of seeds: every spawned worker must
// finish despite the crash (zero lost TIDs), the dead node must end the
// run empty, and the survivors must keep the cluster-wide iso-address
// invariants (checked inside Run) after evacuating and reclaiming.
func TestFailoverUnderAllPolicies(t *testing.T) {
	for _, p := range policy.Names() {
		for _, seed := range []uint64{1, 2, 3} {
			name := fmt.Sprintf("%s/seed%d", p, seed)
			res, err := Run(Spec{Scenario: "failover", Policy: p, Seed: seed, Nodes: 8})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := res.Verify(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, left := range res.ThreadsLeft {
				if left != 0 {
					t.Fatalf("%s: %d thread(s) stranded on node %d", name, left, i)
				}
			}
			if res.Stats.Evacuations != 1 {
				t.Fatalf("%s: %d evacuations, want 1", name, res.Stats.Evacuations)
			}
		}
	}
}
