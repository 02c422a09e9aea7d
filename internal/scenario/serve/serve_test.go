package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
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
// of seeds and cluster sizes, Encode→Decode must reproduce the exact
// Trace, and re-encoding the decoded trace must be byte-identical.
func TestTraceRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 5, 99, 1 << 40} {
		for _, nodes := range []int{2, 16, 64} {
			reqs, err := DeriveSpec(seed, nodes).Synthesize(nodes)
			if err != nil {
				t.Fatal(err)
			}
			tr := &Trace{
				Policy: "work-stealing", Nodes: nodes, Seed: seed,
				Gather: "delta", Arbiter: "chain", Requests: reqs,
			}
			var buf bytes.Buffer
			if err := tr.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			first := buf.String()
			got, err := Decode(strings.NewReader(first))
			if err != nil {
				t.Fatalf("seed=%d nodes=%d: decode: %v", seed, nodes, err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Fatalf("seed=%d nodes=%d: decoded trace differs from original", seed, nodes)
			}
			var buf2 bytes.Buffer
			if err := got.Encode(&buf2); err != nil {
				t.Fatal(err)
			}
			if buf2.String() != first {
				t.Fatalf("seed=%d nodes=%d: re-encode not byte-identical", seed, nodes)
			}
		}
	}
}

// TestDecodeRejectsCorruption pins the digest and format guards.
func TestDecodeRejectsCorruption(t *testing.T) {
	reqs, err := DeriveSpec(1, 4).Synthesize(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{Policy: "negotiation", Nodes: 4, Seed: 1, Gather: "delta", Arbiter: "chain", Requests: reqs}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	if _, err := Decode(strings.NewReader(good)); err != nil {
		t.Fatalf("pristine trace rejected: %v", err)
	}
	// Tamper with one request's work size: digest must catch it.
	tampered := strings.Replace(good, fmt.Sprintf("req %d", int64(reqs[0].At)), fmt.Sprintf("req %d", int64(reqs[0].At)+1), 1)
	if _, err := Decode(strings.NewReader(tampered)); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered stream: want digest mismatch, got %v", err)
	}
	// Future version must be refused.
	future := strings.Replace(good, fmt.Sprintf("pm2serve-trace v%d", TraceVersion), "pm2serve-trace v99", 1)
	if _, err := Decode(strings.NewReader(future)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: want version error, got %v", err)
	}
	// A v1 file — no ckpt line — is an older format, refused too.
	v1 := strings.Replace(good, fmt.Sprintf("pm2serve-trace v%d", TraceVersion), "pm2serve-trace v1", 1)
	v1 = strings.Replace(v1, "ckpt 0000000000000000\n", "", 1)
	if _, err := Decode(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v1 trace: want version error, got %v", err)
	}
	// Truncation must be refused.
	if _, err := Decode(strings.NewReader(good[:len(good)/2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
	// Garbage header.
	if _, err := Decode(strings.NewReader("hello world\n")); err == nil {
		t.Fatal("garbage header accepted")
	}
}

// sealTrace renders a trace file around header lines and req lines,
// with the digest the req lines hash to, so only the header is at fault.
func sealTrace(header string, reqs ...Request) string {
	tr := &Trace{Requests: reqs}
	var b strings.Builder
	b.WriteString(header)
	for _, r := range reqs {
		b.WriteString(reqLine(r))
	}
	fmt.Fprintf(&b, "digest %016x\n", tr.Digest())
	return b.String()
}

const traceHeader = "pm2serve-trace v2\npolicy negotiation\nnodes %d\nseed 1\ngather delta\narbiter global\nckpt 0000000000000000\nrequests %d\n"

// TestDecodeRejectsHugeRequestCount: the request count is untrusted, so
// a count far beyond the lines that follow is an error, and nothing is
// sized by it first.
func TestDecodeRejectsHugeRequestCount(t *testing.T) {
	in := sealTrace(fmt.Sprintf(traceHeader, 4, uint64(1)<<62))
	if _, err := Decode(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "request 1") {
		t.Fatalf("want an error at the first request line, got %v", err)
	}
}

// TestDecodeRejectsPrefOutsideCluster: a request's preferred node must
// be a rank of the trace's cluster, and the cluster must have a node.
func TestDecodeRejectsPrefOutsideCluster(t *testing.T) {
	req := Request{At: 10, Cohort: "api", Prog: "worker", Arg: 100, Pref: 99}
	if _, err := Decode(strings.NewReader(sealTrace(fmt.Sprintf(traceHeader, 4, 1), req))); err == nil || !strings.Contains(err.Error(), "pref 99 outside 4 nodes") {
		t.Fatalf("pref 99 on 4 nodes: got %v", err)
	}
	req.Pref = 0
	for _, nodes := range []int{0, -3} {
		if _, err := Decode(strings.NewReader(sealTrace(fmt.Sprintf(traceHeader, nodes, 1), req))); err == nil || !strings.Contains(err.Error(), "bad nodes") {
			t.Fatalf("nodes %d: got %v", nodes, err)
		}
	}
	req.Pref = 3
	if _, err := Decode(strings.NewReader(sealTrace(fmt.Sprintf(traceHeader, 4, 1), req))); err != nil {
		t.Fatalf("pref 3 on 4 nodes rejected: %v", err)
	}
}

// TestDecodeAcceptsOnlyTraceVersion: the header must name exactly
// TraceVersion; a negative, older or newer one is refused.
func TestDecodeAcceptsOnlyTraceVersion(t *testing.T) {
	good := sealTrace(fmt.Sprintf(traceHeader, 4, 0))
	if _, err := Decode(strings.NewReader(good)); err != nil {
		t.Fatalf("empty v%d trace rejected: %v", TraceVersion, err)
	}
	for _, v := range []string{"v-3", "v1", "v3", "v02", "v2 extra"} {
		in := strings.Replace(good, "pm2serve-trace v2", "pm2serve-trace "+v, 1)
		if _, err := Decode(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("header %q: want a version error, got %v", v, err)
		}
	}
}

// FuzzTraceDecode: Decode returns a trace or an error for any input,
// never a panic, and a trace it returns encodes to a file that decodes
// to the same trace.
func FuzzTraceDecode(f *testing.F) {
	reqs, err := DeriveSpec(1, 4).Synthesize(4)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (&Trace{Policy: "negotiation", Nodes: 4, Seed: 1, Gather: "delta", Arbiter: "global", Requests: reqs[:8]}).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(sealTrace(fmt.Sprintf(traceHeader, 4, uint64(1)<<62)))
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Decode(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Encode(&out); err != nil {
			t.Fatal(err)
		}
		again, err := Decode(&out)
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
