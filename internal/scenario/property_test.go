package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestIsoAddressInvariantsUnderAllPolicies is the harness's property
// test: for every generator × policy × a handful of seeds, the run must
// (a) drain, (b) keep the cluster-wide iso-address invariants (single
// slot ownership, no double mapping, arena integrity — checked inside
// Run), and (c) produce exactly the output the generator promised:
// every worker's isomalloc'd accumulator stayed reachable through its
// pointer across every preemptive migration, and every chain thread
// unwound a deep frame chain to the correct sum after migrating at
// maximum stack depth. Pointers survive migration under every policy,
// not just the paper's default.
func TestIsoAddressInvariantsUnderAllPolicies(t *testing.T) {
	for _, g := range Generators() {
		for _, p := range policy.Names() {
			for _, seed := range []uint64{1, 2, 3} {
				name := fmt.Sprintf("%s/%s/seed%d", g.Name, p, seed)
				res, err := Run(Spec{Scenario: g.Name, Policy: p, Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := res.Verify(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Every thread exited; nothing is stranded mid-migration.
				for i, left := range res.ThreadsLeft {
					if left != 0 {
						t.Fatalf("%s: %d thread(s) stranded on node %d", name, left, i)
					}
				}
			}
		}
	}
}

// TestScenariosScaleWithClusterSize re-runs one scenario per generator
// on a larger cluster: placement must stay within range and the
// invariants must hold when there are more nodes than the default.
func TestScenariosScaleWithClusterSize(t *testing.T) {
	for _, g := range Generators() {
		for _, p := range policy.Names() {
			res, err := Run(Spec{Scenario: g.Name, Policy: p, Nodes: 7, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Verify(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestContendAcrossArbiters runs the contention workload — every node
// negotiating at once — under the sharded arbiter with every gather and
// policy: the run must drain with no thread stranded, keep the
// iso-address invariants (no slot double-owned; resident counts
// conserved down to zero), prove pointer integrity through the
// generator's output expectations, and be byte-identically reproducible
// — the deterministic-backoff guarantee under real contention.
func TestContendAcrossArbiters(t *testing.T) {
	for _, gather := range []string{"sequential", "tree", "delta"} {
		for _, p := range policy.Names() {
			name := fmt.Sprintf("%s/%s", gather, p)
			spec := Spec{Scenario: "contend", Policy: p, Nodes: 8, Gather: gather, Arbiter: "sharded"}
			a, err := Run(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := a.Verify(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if a.Stats.Negotiations == 0 {
				t.Fatalf("%s: the contention workload negotiated zero times", name)
			}
			for i, left := range a.ThreadsLeft {
				if left != 0 {
					t.Fatalf("%s: %d thread(s) stranded on node %d", name, left, i)
				}
			}
			b, err := Run(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if a.TraceString() != b.TraceString() {
				t.Fatalf("%s: two identical runs produced different traces", name)
			}
		}
	}
}

// TestSpecRejectsRemovedArbiter: a spec naming the removed optimistic
// arbiter (or one of its aliases) is refused with an error, not run
// under some other arbiter and not a panic.
func TestSpecRejectsRemovedArbiter(t *testing.T) {
	for _, arb := range []string{"optimistic", "opt", "occ"} {
		_, err := Run(Spec{Scenario: "contend", Nodes: 4, Arbiter: arb})
		if err == nil || !strings.Contains(err.Error(), "unknown arbiter") {
			t.Fatalf("arbiter %q: error = %v, want an unknown-arbiter error", arb, err)
		}
	}
}

// TestNegoStressAcrossGatherStrategies runs the negotiation-heavy
// workload under every gather strategy at 4, 16 and 64 nodes and every
// policy: each run must drain, keep the iso-address invariants, prove
// pointer integrity, and be byte-identically reproducible. The tree and
// delta gathers must not change *what* the protocol achieves — only what
// it costs.
func TestNegoStressAcrossGatherStrategies(t *testing.T) {
	for _, gather := range []string{"tree", "delta"} {
		for _, nodes := range []int{4, 16, 64} {
			for _, p := range policy.Names() {
				name := fmt.Sprintf("%s/%d/%s", gather, nodes, p)
				spec := Spec{Scenario: "negostress", Policy: p, Nodes: nodes, Gather: gather}
				a, err := Run(spec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := a.Verify(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if a.Stats.Negotiations == 0 {
					t.Fatalf("%s: the stress workload negotiated zero times", name)
				}
				for i, left := range a.ThreadsLeft {
					if left != 0 {
						t.Fatalf("%s: %d thread(s) stranded on node %d", name, left, i)
					}
				}
				b, err := Run(spec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if a.TraceString() != b.TraceString() {
					t.Fatalf("%s: two identical runs produced different traces", name)
				}
			}
		}
	}
}
