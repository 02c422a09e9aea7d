package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
)

var update = flag.Bool("update", false, "rewrite the golden scenario traces")

// TestGoldenTraces pins the canonical event trace of every
// (generator, policy) pair: same seed + policy ⇒ byte-identical trace.
// Regenerate with `go test ./internal/scenario -run TestGoldenTraces -update`
// after an intentional behavior change, and review the diff like code.
func TestGoldenTraces(t *testing.T) {
	for _, g := range Generators() {
		for _, p := range policy.Names() {
			name := fmt.Sprintf("%s_%s", g.Name, p)
			t.Run(name, func(t *testing.T) {
				res, err := Run(Spec{Scenario: g.Name, Policy: p})
				if err != nil {
					t.Fatal(err)
				}
				got := res.TraceString()
				path := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden trace (run with -update): %v", err)
				}
				if got != string(want) {
					t.Fatalf("trace deviates from %s.golden — placement behavior changed.\nGot:\n%s", name, got)
				}
			})
		}
	}
}

// TestGoldenTracesAtScale pins the negotiation-heavy workload at the
// larger cluster sizes (16 and 64 nodes) under every policy: the §4.4
// protocol must stay deterministic when the gather spans dozens of peers
// and initiators queue on the lock manager.
func TestGoldenTracesAtScale(t *testing.T) {
	for _, nodes := range []int{16, 64} {
		for _, p := range policy.Names() {
			name := fmt.Sprintf("negostress_%s_n%d", p, nodes)
			t.Run(name, func(t *testing.T) {
				res, err := Run(Spec{Scenario: "negostress", Policy: p, Nodes: nodes})
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Verify(); err != nil {
					t.Fatal(err)
				}
				got := res.TraceString()
				path := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden trace (run with -update): %v", err)
				}
				if got != string(want) {
					t.Fatalf("trace deviates from %s.golden — negotiation behavior changed at scale.\nGot:\n%s", name, got)
				}
			})
		}
	}
}

// TestGoldenTracesDeltaGather pins the negotiation-heavy workload under
// the incremental delta gather at 4, 16 and 64 nodes: the versioned
// bitmap exchange, cached views and give-back version bumps must stay
// byte-identically deterministic under load, at scale, under every
// policy. (The sequential-gather goldens above are untouched by the
// delta machinery — it is fully off under the paper-faithful default.)
func TestGoldenTracesDeltaGather(t *testing.T) {
	for _, nodes := range []int{4, 16, 64} {
		for _, p := range policy.Names() {
			name := fmt.Sprintf("negostress_%s_delta_n%d", p, nodes)
			t.Run(name, func(t *testing.T) {
				res, err := Run(Spec{Scenario: "negostress", Policy: p, Nodes: nodes, Gather: "delta"})
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Verify(); err != nil {
					t.Fatal(err)
				}
				got := res.TraceString()
				path := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden trace (run with -update): %v", err)
				}
				if got != string(want) {
					t.Fatalf("trace deviates from %s.golden — delta-gather behavior changed.\nGot:\n%s", name, got)
				}
			})
		}
	}
}

// TestGoldenTracesArbiters pins the contention-heavy workload under the
// sharded negotiation arbiter at 16 nodes: the home-origin first fit,
// the loose split, the shard lock order and the deterministic retry
// backoff must be byte-identically reproducible under every policy.
// (The goldens above run the global arbiter, whose negotiations hold
// the whole slot space from their first round: they pin the
// whole-space rules, which are the paper's first fit from slot 0 and
// immediate retry.)
func TestGoldenTracesArbiters(t *testing.T) {
	for _, p := range policy.Names() {
		name := fmt.Sprintf("contend_%s_sharded_n16", p)
		t.Run(name, func(t *testing.T) {
			res, err := Run(Spec{Scenario: "contend", Policy: p, Nodes: 16, Arbiter: "sharded"})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Verify(); err != nil {
				t.Fatal(err)
			}
			got := res.TraceString()
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (run with -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("trace deviates from %s.golden — arbiter behavior changed.\nGot:\n%s", name, got)
			}
		})
	}
}

// TestTraceDeterminism runs the same spec twice in-process and demands
// byte-identical traces — policies with hidden nondeterminism (map
// iteration, real time, shared global state) fail here even before the
// golden files are consulted.
func TestTraceDeterminism(t *testing.T) {
	for _, g := range Generators() {
		for _, p := range policy.Names() {
			a, err := Run(Spec{Scenario: g.Name, Policy: p, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(Spec{Scenario: g.Name, Policy: p, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if a.TraceString() != b.TraceString() {
				t.Fatalf("%s/%s: two identical runs produced different traces", g.Name, p)
			}
		}
	}
}

// TestPoliciesActuallyDiffer guards against the engine silently ignoring
// the policy selection: on the burst scenario, the three policies must
// produce three distinct traces.
func TestPoliciesActuallyDiffer(t *testing.T) {
	seen := map[string]string{}
	for _, p := range policy.Names() {
		res, err := Run(Spec{Scenario: "burst", Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		// Compare decision lines only (the header names the policy and
		// would mask identical behavior).
		body := ""
		for _, l := range res.Trace[1:] {
			body += l + "\n"
		}
		for other, otherBody := range seen {
			if body == otherBody {
				t.Fatalf("policies %s and %s produced identical burst traces", p, other)
			}
		}
		seen[p] = body
	}
}
