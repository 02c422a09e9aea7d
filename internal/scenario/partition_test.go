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
// layer actually fired against the unreachable rank) and one full
// suspicion lifecycle in the trace — per arbiter and per gather mode,
// since a negotiation runs during the partition and its wire pattern
// legitimately differs between those. After the drain nothing waits on
// a reply, and since an answered call's deadline timer is stopped, the
// run ends with its last real event at 34 ms instead of at the deadline
// of an answered lock request.
func TestPartitionTraceIdentity(t *testing.T) {
	for _, arb := range []string{"", "sharded"} {
		for _, gather := range []string{"", "tree", "delta"} {
			name := fmt.Sprintf("arb=%q gather=%q", arb, gather)
			res, err := Run(Spec{Scenario: "partition", Nodes: 8, Arbiter: arb, Gather: gather})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := res.Verify(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Drained != nil {
				t.Fatalf("%s: %v", name, res.Drained)
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
			if !strings.Contains(got, "[suspect]") || !strings.Contains(got, "[rejoin]") {
				t.Fatalf("%s: no suspicion lifecycle in the trace:\n%s", name, got)
			}
			if end := "end virtual=34000.000us "; !strings.Contains(got, end) {
				t.Fatalf("%s: the drain does not end at %q:\n%s", name, end, got)
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
