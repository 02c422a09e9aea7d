package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestPartitionTraceIdentity pins the partial-failure acceptance
// property: on an 8-node cluster with one node partitioned away
// mid-run, the run completes with zero hung initiators (the engine
// drains), zero evacuations (the victim is alive — suspicion must not
// graduate to declaration), a positive RPC-timeout count (the deadline
// layer actually fired against the unreachable rank), and a canonical
// trace that is byte-identical across worker counts 1, 2 and 4 — per
// arbiter and per gather mode, since a negotiation runs mid-window and
// its wire pattern legitimately differs between those.
func TestPartitionTraceIdentity(t *testing.T) {
	for _, arb := range []string{"", "sharded"} {
		for _, gather := range []string{"", "tree", "delta"} {
			want := ""
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("arb=%q gather=%q workers=%d", arb, gather, workers)
				res, err := Run(Spec{Scenario: "partition", Nodes: 8, Arbiter: arb, Gather: gather, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := res.Verify(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Stats.Evacuations != 0 {
					t.Fatalf("%s: %d evacuations of a live partitioned node", name, res.Stats.Evacuations)
				}
				if res.Stats.RPCTimeouts == 0 {
					t.Fatalf("%s: no RPC timeouts — the deadline layer never fired", name)
				}
				if res.Stats.Suspicions != 1 || res.Stats.Rejoins != 1 {
					t.Fatalf("%s: suspicions=%d rejoins=%d, want 1 and 1",
						name, res.Stats.Suspicions, res.Stats.Rejoins)
				}
				got := res.TraceString()
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s: trace deviates from the workers=1 run:\ngot:\n%s\nwant:\n%s", name, got, want)
				}
			}
			if !strings.Contains(want, "[suspect]") || !strings.Contains(want, "[rejoin]") {
				t.Fatalf("arb=%q gather=%q: no suspicion lifecycle in the trace:\n%s", arb, gather, want)
			}
		}
	}
}

// TestPartitionUnderAllPolicies runs the partition workload under every
// placement policy and a spread of seeds: every worker must finish
// despite the 6 ms isolation (store-and-forward healing loses nothing),
// no thread may end up stranded, and the live victim must never be
// evacuated — the heartbeat false-positive property at harness level.
func TestPartitionUnderAllPolicies(t *testing.T) {
	for _, p := range policy.Names() {
		for _, seed := range []uint64{1, 2, 3} {
			name := fmt.Sprintf("%s/seed%d", p, seed)
			res, err := Run(Spec{Scenario: "partition", Policy: p, Seed: seed, Nodes: 8})
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
			if res.Stats.Evacuations != 0 {
				t.Fatalf("%s: %d evacuations, want 0 — the partitioned node is alive", name, res.Stats.Evacuations)
			}
			if res.Stats.Rejoins != 1 {
				t.Fatalf("%s: %d rejoins, want 1", name, res.Stats.Rejoins)
			}
		}
	}
}
