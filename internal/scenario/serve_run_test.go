package scenario

import (
	"strings"
	"testing"

	"repro/internal/scenario/serve"
)

// TestServeReplayByteIdentical is the record→replay acceptance test at
// the harness level: synthesizing the serve stream and replaying it
// through a round-tripped trace file must reproduce the live run's
// canonical trace byte for byte.
func TestServeReplayByteIdentical(t *testing.T) {
	for _, p := range []string{"negotiation", "round-robin", "work-stealing"} {
		spec := Spec{Scenario: "serve", Policy: p, Nodes: 4, Seed: 11}
		live, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: live run: %v", p, err)
		}
		reqs, err := serve.DeriveSpec(spec.Seed, spec.Nodes).Synthesize(spec.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip the stream through the on-disk format, as the
		// pm2trace record/replay commands do.
		tr := &serve.Trace{Policy: p, Nodes: spec.Nodes, Seed: spec.Seed,
			Gather: live.Spec.Gather, Arbiter: live.Spec.Arbiter, Requests: reqs}
		dec, err := serve.Decode(tr.Encode())
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := Replay(Spec{Policy: dec.Policy, Nodes: dec.Nodes, Seed: dec.Seed,
			Gather: dec.Gather, Arbiter: dec.Arbiter}, dec.Requests)
		if err != nil {
			t.Fatalf("%s: replay: %v", p, err)
		}
		if live.TraceString() != replayed.TraceString() {
			t.Fatalf("%s: replayed trace differs from live trace", p)
		}
		if err := replayed.Verify(); err != nil {
			t.Fatalf("%s: replayed run failed verification: %v", p, err)
		}
	}
}

// TestServeCohortSLOs checks the per-cohort accounting a serve run
// surfaces: all three tenants present, every request completed, and
// non-degenerate latency percentiles with placement ≤ end-to-end.
func TestServeCohortSLOs(t *testing.T) {
	res, err := Run(Spec{Scenario: "serve", Policy: "negotiation"})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	slos := res.CohortSLOs()
	if len(slos) != 3 {
		t.Fatalf("got %d cohorts, want 3: %+v", len(slos), slos)
	}
	want := []string{"api", "batch", "deep"}
	for i, s := range slos {
		if s.Cohort != want[i] {
			t.Fatalf("cohort %d = %s, want %s (sorted)", i, s.Cohort, want[i])
		}
		if s.Requests == 0 || s.Completed != s.Requests {
			t.Fatalf("%s: %d/%d completed — a drained run must complete everything",
				s.Cohort, s.Completed, s.Requests)
		}
		if s.EndToEnd.P50 <= 0 || s.EndToEnd.P99 < s.EndToEnd.P50 {
			t.Fatalf("%s: degenerate e2e percentiles %+v", s.Cohort, s.EndToEnd)
		}
		if s.Placement.P99 > s.EndToEnd.P99 {
			t.Fatalf("%s: placement p99 %v exceeds end-to-end p99 %v",
				s.Cohort, s.Placement.P99, s.EndToEnd.P99)
		}
	}
}

// TestSaturatedPartialResult pins the fixed step-budget contract: an
// exhausted budget with AllowSaturated yields a partial Result flagged
// Saturated (the saturation sweep's past-knee measurement), while the
// default strict mode still errors — closed-loop scenarios must drain.
func TestSaturatedPartialResult(t *testing.T) {
	// A budget far too small for the serve workload.
	spec := Spec{Scenario: "serve", Policy: "negotiation", MaxSteps: 200, AllowSaturated: true}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("AllowSaturated run errored instead of returning a partial result: %v", err)
	}
	if !res.Saturated {
		t.Fatal("undrained run not flagged Saturated")
	}
	left := 0
	for _, n := range res.ThreadsLeft {
		left += n
	}
	incomplete := 0
	for _, s := range res.Stats.CohortSamples {
		if !s.Done {
			incomplete++
		}
	}
	if left == 0 && incomplete == 0 {
		t.Fatal("saturated result shows no residual work — cutoff did not happen mid-run")
	}

	// Same budget, strict mode: must error, and say so usefully.
	spec.AllowSaturated = false
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "not drained") {
		t.Fatalf("strict undrained run: want 'not drained' error, got %v", err)
	}

	// A drained run must not be flagged.
	ok, err := Run(Spec{Scenario: "burst", Policy: "negotiation", AllowSaturated: true})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Saturated {
		t.Fatal("drained run flagged Saturated")
	}
}

// TestServeArrivalStreamDeterminism re-checks stream determinism at the
// harness boundary: two serve runs of the same spec must schedule the
// identical arrivals (already covered byte-for-byte by the golden, but
// this pins it across cluster sizes the goldens don't cover).
func TestServeArrivalStreamDeterminism(t *testing.T) {
	for _, nodes := range []int{3, 16, 64} {
		a, err := serve.DeriveSpec(21, nodes).Synthesize(nodes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := serve.DeriveSpec(21, nodes).Synthesize(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("nodes=%d: stream lengths differ", nodes)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("nodes=%d: request %d differs: %+v vs %+v", nodes, i, a[i], b[i])
			}
		}
	}
}
