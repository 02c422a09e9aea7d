package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWorkersIdentity pins the tentpole's end-to-end guarantee at the
// harness level: Workers=1 and Workers=N produce byte-identical traces
// and identical Stats on the contend, negostress and serve workloads —
// and both match the committed serial goldens, so enabling the parallel
// executor can never move a golden.
func TestWorkersIdentity(t *testing.T) {
	cases := []struct {
		spec   Spec
		golden string
	}{
		{Spec{Scenario: "contend", Policy: "negotiation", Nodes: 16, Arbiter: "sharded"}, "contend_negotiation_sharded_n16"},
		{Spec{Scenario: "negostress", Policy: "negotiation", Nodes: 16}, "negostress_negotiation_n16"},
		{Spec{Scenario: "serve", Policy: "negotiation"}, "serve_negotiation"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s_%s", tc.spec.Scenario, tc.spec.Policy), func(t *testing.T) {
			serialSpec := tc.spec
			serialSpec.Workers = 1
			serial, err := Run(serialSpec)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				parSpec := tc.spec
				parSpec.Workers = workers
				par, err := Run(parSpec)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := par.TraceString(), serial.TraceString(); got != want {
					t.Fatalf("workers=%d trace deviates from serial run:\ngot:\n%s\nwant:\n%s", workers, got, want)
				}
				if !reflect.DeepEqual(par.Stats, serial.Stats) {
					t.Fatalf("workers=%d stats deviate from serial run:\ngot:  %+v\nwant: %+v", workers, par.Stats, serial.Stats)
				}
				if par.Steps != serial.Steps || par.VirtualMicros != serial.VirtualMicros {
					t.Fatalf("workers=%d steps/clock deviate: %d/%.3f vs %d/%.3f",
						workers, par.Steps, par.VirtualMicros, serial.Steps, serial.VirtualMicros)
				}
			}
			// The serial run must itself match the committed golden, so
			// the identity above transitively pins the parallel runs to
			// the pre-existing golden bytes.
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatalf("reading golden: %v", err)
			}
			if serial.TraceString() != string(want) {
				t.Fatalf("serial run deviates from %s.golden", tc.golden)
			}
		})
	}
}

// TestWorkersGatherMatrix extends the identity guarantee to the full
// gather matrix at the harness level: every gather strategy composes
// with the parallel kernel, so negostress — the workload built to hammer §4.4 negotiations — must
// produce byte-identical traces and identical stats at workers 1, 2 and
// 4 under every gather and a representative arbiter spread. The new
// combinations have no committed goldens; self-consistency against the
// in-process serial run is the pinned property (the golden-backed
// combinations are covered by TestWorkersIdentity above).
func TestWorkersGatherMatrix(t *testing.T) {
	cases := []struct{ gather, arbiter string }{
		{"sequential", "global"},
		{"tree", "global"},
		{"tree", "optimistic"},
		{"delta", "sharded"},
		{"delta", "optimistic"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.gather+"_"+tc.arbiter, func(t *testing.T) {
			t.Parallel()
			spec := Spec{Scenario: "negostress", Policy: "negotiation", Nodes: 16,
				Gather: tc.gather, Arbiter: tc.arbiter}
			serialSpec := spec
			serialSpec.Workers = 1
			serial, err := Run(serialSpec)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Stats.Negotiations == 0 {
				t.Fatal("negostress performed no negotiations — not exercising the gather")
			}
			for _, workers := range []int{2, 4} {
				parSpec := spec
				parSpec.Workers = workers
				par, err := Run(parSpec)
				if err != nil {
					t.Fatal(err)
				}
				if par.TraceString() != serial.TraceString() {
					t.Fatalf("workers=%d trace deviates from serial run", workers)
				}
				if !reflect.DeepEqual(par.Stats, serial.Stats) {
					t.Fatalf("workers=%d stats deviate:\ngot:  %+v\nwant: %+v", workers, par.Stats, serial.Stats)
				}
				if par.Steps != serial.Steps || par.VirtualMicros != serial.VirtualMicros {
					t.Fatalf("workers=%d steps/clock deviate: %d/%.3f vs %d/%.3f",
						workers, par.Steps, par.VirtualMicros, serial.Steps, serial.VirtualMicros)
				}
			}
		})
	}
}

// TestWorkersInvalidSpec pins that a structurally invalid configuration
// surfaces as an error from the harness (via pm2.Config.Validate), not a
// panic — every gather composes with every worker count, so a negative
// worker count is the representative invalid input.
func TestWorkersInvalidSpec(t *testing.T) {
	if _, err := Run(Spec{Scenario: "negostress", Workers: -2}); err == nil {
		t.Fatal("workers=-2: expected a validation error")
	}
}
