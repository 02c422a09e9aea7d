package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/seal"
)

// TestSynthesizeDeterministic pins the tentpole property: the same
// (Spec, nodes) pair always expands to the identical request stream.
// The issue's acceptance criteria hang off this — recorded traces and
// golden runs are only stable if synthesis is.
func TestSynthesizeDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 42} {
		for _, nodes := range []int{2, 4, 16} {
			a, err := DeriveSpec(seed, nodes).Synthesize(nodes)
			if err != nil {
				t.Fatalf("seed=%d nodes=%d: %v", seed, nodes, err)
			}
			b, err := DeriveSpec(seed, nodes).Synthesize(nodes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed=%d nodes=%d: two syntheses differ", seed, nodes)
			}
			if len(a) == 0 {
				t.Fatalf("seed=%d nodes=%d: empty stream", seed, nodes)
			}
		}
	}
	// Seed 0 and seed 1 are the same stream (one canonical seed rule).
	z, _ := DeriveSpec(0, 4).Synthesize(4)
	o, _ := DeriveSpec(1, 4).Synthesize(4)
	if !reflect.DeepEqual(z, o) {
		t.Fatal("seed 0 and seed 1 produced different streams — CanonSeed rule broken")
	}
	// Different seeds diverge.
	x, _ := DeriveSpec(7, 4).Synthesize(4)
	if reflect.DeepEqual(o, x) {
		t.Fatal("seeds 1 and 7 produced identical streams")
	}
}

// TestSynthesizeStreamShape sanity-checks the expanded stream: sorted
// arrivals inside the horizon, clamped work sizes, prefs in range, and
// every cohort present.
func TestSynthesizeStreamShape(t *testing.T) {
	spec := DeriveSpec(3, 8)
	reqs, err := spec.Synthesize(8)
	if err != nil {
		t.Fatal(err)
	}
	clamp := map[string][2]uint32{}
	for _, c := range spec.Cohorts {
		clamp[c.Name] = [2]uint32{c.WorkMin, c.WorkMax}
	}
	seen := map[string]int{}
	horizon := int64(spec.HorizonMicros) * 1000 // µs → ns
	for i, r := range reqs {
		if i > 0 && r.At < reqs[i-1].At {
			t.Fatalf("stream not sorted at %d: %v after %v", i, r.At, reqs[i-1].At)
		}
		if int64(r.At) < 0 || int64(r.At) >= horizon {
			t.Fatalf("request %d arrives at %v, outside [0, %d)", i, r.At, horizon)
		}
		if r.Pref < 0 || r.Pref >= 8 {
			t.Fatalf("request %d prefers node %d of 8", i, r.Pref)
		}
		cl := clamp[r.Cohort]
		if r.Arg < cl[0] || r.Arg > cl[1] {
			t.Fatalf("request %d (%s): work %d outside clamp [%d, %d]", i, r.Cohort, r.Arg, cl[0], cl[1])
		}
		seen[r.Cohort]++
	}
	for _, c := range spec.Cohorts {
		if seen[c.Name] == 0 {
			t.Fatalf("cohort %s produced no arrivals over the horizon", c.Name)
		}
	}
	// The sticky tenant never leaves home.
	for _, r := range reqs {
		if r.Cohort == "batch" && r.Pref != 0 {
			t.Fatalf("homed cohort batch preferred node %d", r.Pref)
		}
	}
}

// TestDiurnalRateModulation checks the piecewise arrival curve actually
// modulates: with a quiet quarter-rate first half and a 7x-heavier
// second half, the second half must carry clearly more arrivals.
func TestDiurnalRateModulation(t *testing.T) {
	spec := Spec{
		Seed:          9,
		HorizonMicros: 40_000,
		Cohorts: []Cohort{{
			Name: "d", Arrival: ArrivalDiurnal, RatePerMs: 2,
			Periods:   []Period{{Weight: 0.25, DurationMicros: 20_000}, {Weight: 1.75, DurationMicros: 20_000}},
			Work:      WorkFixed,
			WorkScale: 100,
		}},
	}
	reqs, err := spec.Synthesize(4)
	if err != nil {
		t.Fatal(err)
	}
	var quiet, busy int
	for _, r := range reqs {
		if int64(r.At) < 20_000*1000 {
			quiet++
		} else {
			busy++
		}
	}
	if quiet == 0 || busy == 0 {
		t.Fatalf("degenerate split quiet=%d busy=%d", quiet, busy)
	}
	// Expected ratio 7:1; demand at least 3:1 to stay robust to noise.
	if busy < 3*quiet {
		t.Fatalf("diurnal curve not modulating: quiet=%d busy=%d (want busy ≥ 3×quiet)", quiet, busy)
	}
}

// TestTraceRoundTrip is the record→replay property test: for a spread
// of seeds and cluster sizes, with and without a checkpoint binding,
// Decode must reproduce the exact Trace, and Encode(Decode(x)) must
// give back x byte for byte.
func TestTraceRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 5, 99, 1 << 40} {
		for _, nodes := range []int{2, 16, 64} {
			reqs, err := DeriveSpec(seed, nodes).Synthesize(nodes)
			if err != nil {
				t.Fatal(err)
			}
			tr := &Trace{
				Policy: "work-stealing", Nodes: nodes, Seed: seed,
				Gather: "delta", Arbiter: "chain", CkptDigest: seed * 0x9e3779b97f4a7c15, Requests: reqs,
			}
			first := tr.Encode()
			got, err := Decode(first)
			if err != nil {
				t.Fatalf("seed=%d nodes=%d: decode: %v", seed, nodes, err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Fatalf("seed=%d nodes=%d: decoded trace differs from original", seed, nodes)
			}
			if !bytes.Equal(got.Encode(), first) {
				t.Fatalf("seed=%d nodes=%d: re-encode not byte-identical", seed, nodes)
			}
		}
	}
}

// resealed returns a trace image around doc with a valid seal, so only
// the document can be at fault.
func resealed(doc string) []byte { return seal.Seal([]byte(traceMagic + "\n" + doc + "\n")) }

const oneRequest = `{"Policy":"negotiation","Nodes":4,"Seed":1,"Gather":"delta","Arbiter":"global","CkptDigest":0,` +
	`"Requests":[{"At":10,"Cohort":"api","Prog":"worker","Arg":100,"Pref":3}]}`

// TestDecodeRejectsCorruption: the seal guards against accidental
// corruption only, so Decode must refuse a malformed or out-of-range
// document behind a valid seal with an error, and refuse the retired
// v2 text format.
func TestDecodeRejectsCorruption(t *testing.T) {
	if _, err := Decode(resealed(oneRequest)); err != nil {
		t.Fatalf("resealed pristine trace rejected: %v", err)
	}
	v2 := "pm2serve-trace v2\npolicy negotiation\nnodes 4\nseed 1\ngather delta\narbiter global\nckpt 0000000000000000\nrequests 0\n"
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"unknown field", resealed(`{"Bogus":1,` + oneRequest[1:]), `unknown field "Bogus"`},
		{"wrong type", resealed(strings.Replace(oneRequest, `"Nodes":4`, `"Nodes":"4"`, 1)), "cannot unmarshal string"},
		{"pref at nodes", resealed(strings.Replace(oneRequest, `"Pref":3`, `"Pref":4`, 1)), "pref 4 outside 4 nodes"},
		{"negative at", resealed(strings.Replace(oneRequest, `"At":10`, `"At":-10`, 1)), "arrival at -10 ns"},
		{"arg above uint32", resealed(strings.Replace(oneRequest, `"Arg":100`, `"Arg":4294967296`, 1)), "cannot unmarshal number 4294967296"},
		{"nodes 0", resealed(`{"Nodes":0}`), "trace of 0 nodes"},
		{"v2 header", seal.Seal([]byte(v2)), `not a pm2serve-trace v3 image (starts "pm2serve-trace v2")`},
		{"trailing document", resealed(oneRequest + "\n{}"), "data after the document"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsPrefOutsideCluster: a request's preferred node must
// be a rank of the trace's cluster, and the cluster must have a node.
func TestDecodeRejectsPrefOutsideCluster(t *testing.T) {
	for _, tc := range []struct{ nodes, pref, want string }{
		{"4", "99", "pref 99 outside 4 nodes"},
		{"4", "-1", "pref -1 outside 4 nodes"},
		{"-3", "0", "trace of -3 nodes"},
	} {
		doc := strings.Replace(strings.Replace(oneRequest, `"Pref":3`, `"Pref":`+tc.pref, 1), `"Nodes":4`, `"Nodes":`+tc.nodes, 1)
		if _, err := Decode(resealed(doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("nodes %s, pref %s: error = %v, want %q", tc.nodes, tc.pref, err, tc.want)
		}
	}
}

// FuzzTraceDecode: Decode returns a trace or an error for any input,
// never a panic, and a trace it returns encodes to an image that
// decodes to the same trace. Besides a recorded trace, the seeds are
// re-sealed documents, which reach the JSON decoder and the range
// checks behind the seal.
func FuzzTraceDecode(f *testing.F) {
	reqs, err := DeriveSpec(1, 4).Synthesize(4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add((&Trace{Policy: "negotiation", Nodes: 4, Seed: 1, Gather: "delta", Arbiter: "global", Requests: reqs[:8]}).Encode())
	f.Add(resealed(oneRequest))
	f.Add(resealed(strings.Replace(oneRequest, `"Pref":3`, `"Pref":4`, 1)))
	f.Add(resealed(strings.Replace(oneRequest, `"Arg":100`, `"Arg":4294967296`, 1)))
	f.Add(resealed(`{"Nodes":1,"Requests":null}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Decode(in)
		if err != nil {
			return
		}
		again, err := Decode(tr.Encode())
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("re-encoded trace decodes differently:\n%+v\n%+v", again, tr)
		}
	})
}

// TestValidate covers the spec guards.
func TestValidate(t *testing.T) {
	base := func() Spec { return DeriveSpec(1, 4) }
	if err := base().WithDefaults().Validate(); err != nil {
		t.Fatalf("derived spec invalid: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no cohorts", func(s *Spec) { s.Cohorts = nil }, "no cohorts"},
		{"empty name", func(s *Spec) { s.Cohorts[0].Name = "" }, "non-empty token"},
		{"space in name", func(s *Spec) { s.Cohorts[0].Name = "a b" }, "non-empty token"},
		{"duplicate", func(s *Spec) { s.Cohorts[1].Name = s.Cohorts[0].Name }, "duplicate"},
		{"zero rate", func(s *Spec) { s.Cohorts[0].RatePerMs = 0 }, "rate"},
		{"bad arrival", func(s *Spec) { s.Cohorts[0].Arrival = "bursty" }, "arrival"},
		{"diurnal no periods", func(s *Spec) { s.Cohorts[1].Periods = nil }, "periods"},
		{"bad work", func(s *Spec) { s.Cohorts[0].Work = "uniform" }, "work distribution"},
		{"zero scale", func(s *Spec) { s.Cohorts[0].WorkScale = 0 }, "scale"},
		{"pareto no alpha", func(s *Spec) { s.Cohorts[1].WorkAlpha = 0 }, "alpha"},
		{"bad prog", func(s *Spec) { s.Cohorts[0].Prog = "webserver" }, "program profile"},
	}
	for _, tc := range bad {
		s := base()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}
