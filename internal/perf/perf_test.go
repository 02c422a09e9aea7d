package perf

import (
	"strings"
	"testing"

	"repro/internal/fault"
	ipm2 "repro/internal/pm2"
	"repro/internal/simtime"
)

func loadBenchmark(t *testing.T) *BenchmarkFile {
	t.Helper()
	b, err := LoadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCatalog pins BENCHMARK.json to the metric
// catalog: the same workloads, metrics, units, directions and bounds.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	b := loadBenchmark(t)
	if err := b.Matches(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Paths, " ") != "internal/perf cmd/pm2perf" {
		t.Fatalf("paths %v", b.Paths)
	}
}

// TestSeed1DigestsPinned derives every workload's seed-1 inputs at full
// size and compares their digest with the pinned one.
func TestSeed1DigestsPinned(t *testing.T) {
	for _, w := range workloads {
		if w.plan == nil {
			continue
		}
		p, err := w.plan(1, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(w.name, p); got != seed1Digests[w.name] {
			t.Errorf("%s: seed-1 inputs hash to %s, pinned %s", w.name, got, seed1Digests[w.name])
		}
	}
}

// TestWorkloadsReportEveryMetric runs every listed workload shrunk, with
// the traced pass, and requires its checks to pass — they include the
// timed repetitions and the traced pass reproducing the warm-up's virtual
// metrics exactly — and every BENCHMARK.json metric to be reported with
// its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	b := loadBenchmark(t)
	for _, w := range b.Workloads {
		res, err := Run(w.Name, Options{Seed: 7, Small: true, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d problems=%v", w.Name, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		want := map[string]string{}
		for _, m := range b.EndToEnd {
			want[m.Name] = m.Unit
		}
		for _, m := range b.PerLayer {
			want[m.Name] = m.Unit
		}
		for name, unit := range want {
			if s, ok := res.Metrics[name]; !ok || s.Unit != unit {
				t.Errorf("%s: metric %s reported=%t unit %q, want %q", w.Name, name, ok, s.Unit, unit)
			}
		}
	}
}

// TestPlansReproduce derives each workload's inputs twice and runs them
// untraced and traced: the digests and every virtual metric must agree.
func TestPlansReproduce(t *testing.T) {
	for _, name := range []string{"ring", "alloc", "serve", "recover"} {
		w, _ := findWorkload(name)
		p1, err := w.plan(11, true)
		if err != nil {
			t.Fatal(err)
		}
		p2, _ := w.plan(11, true)
		if digest(name, p1) != digest(name, p2) {
			t.Fatalf("%s: inputs differ between two derivations", name)
		}
		if p3, _ := w.plan(12, true); digest(name, p3) == digest(name, p1) {
			t.Errorf("%s: seeds 11 and 12 give the same inputs", name)
		}
		a := execute(p1, nil)
		sp := newSpanLog()
		b := execute(p2, sp)
		if d := sameVirtual(a.obs, b.obs, true); d != "" {
			t.Errorf("%s: traced pass differs from untraced: %s", name, d)
		}
		seen := map[string]bool{}
		for _, s := range sp.spans {
			seen[s.Name] = true
		}
		for _, n := range []string{"setup", "pm2.New", "inputs", "drain", "slice"} {
			if !seen[n] {
				t.Errorf("%s: traced pass recorded no %q span", name, n)
			}
		}
	}
}

// TestTamperedCheckpointFails flips one byte of a pm2ckpt image.
func TestTamperedCheckpointFails(t *testing.T) {
	cl := ipm2.New(ipm2.Config{Nodes: 2}, newImage())
	cl.Spawn(0, "worker", 5_000)
	cl.RunFor(200 * simtime.Microsecond)
	ck, err := cl.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	image := ck.Encode()
	if p := checkpointCheck(image); p != "" {
		t.Fatalf("intact image rejected: %s", p)
	}
	image[len(image)/2] ^= 1
	if checkpointCheck(image) == "" {
		t.Fatal("tampered image accepted")
	}
}

// TestCorruptedMarkerFails overwrites the marker of a ring thread's
// iso-address block while it spins between hops; the thread notices after
// its next hop and the output check fails the run.
func TestCorruptedMarkerFails(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		cl := ipm2.New(ipm2.Config{Nodes: 2}, newImage())
		cl.SpawnCohort(0, "perfring", 2|50_000<<8|1<<24, "ring")
		cl.RunFor(simtime.Millisecond)
		if corrupt {
			threads := cl.Node(0).Scheduler().Snapshot()
			if len(threads) != 1 {
				t.Fatalf("%d threads on node 0, want the spinning ring thread", len(threads))
			}
			space := cl.Node(0).Space()
			block, err := space.Load32(threads[0].Regs.FP - 12)
			if err == nil {
				err = space.Store32(block, 0xdead)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		cl.Run(0)
		problems := checkOutput(cl.Trace().Lines(), finishedThreads(cl), nil)
		if got := len(problems) > 0; got != corrupt {
			t.Errorf("corrupt=%t: problems %v", corrupt, problems)
		}
	}
}

// TestLostRequestCounted migrates a chain thread into a crashed rank —
// the hazard the recover workload routes around. The thread is lost with
// the rank; the benchmark counts it as failed work instead of failing
// its checks.
func TestLostRequestCounted(t *testing.T) {
	plan, err := fault.Parse("crash:2@500")
	if err != nil {
		t.Fatal(err)
	}
	cl := ipm2.New(ipm2.Config{Nodes: 4, Faults: plan}, newImage())
	cl.Engine().At(simtime.Millisecond, func() { cl.SpawnCohort(1, "chain", 5|3<<8, "deep") })
	cl.Run(0)
	o := observe(&instance{cl: cl, op: opRequest, nodes: 4})
	if o.attempted != 1 || o.failed != 1 || o.values["failed_ratio"] != 1 {
		t.Fatalf("attempted=%d failed=%d failed_ratio=%v, want 1/1/1", o.attempted, o.failed, o.values["failed_ratio"])
	}
	if p := checkOutput(cl.Trace().Lines(), 0, []int{15}); len(p) != 0 {
		t.Fatalf("lost work failed the output check: %v", p)
	}
}

// TestCalibrateThreads runs the calibration kernel on two goroutines, as
// the ring workload's two kernel workers need.
func TestCalibrateThreads(t *testing.T) {
	times := calibrate(2)
	if len(times) != calRuns {
		t.Fatalf("%d calibration times, want %d", len(times), calRuns)
	}
	for _, s := range times {
		if s <= 0 {
			t.Fatalf("calibration time %v", s)
		}
	}
}

// TestVerdicts covers the -compare rules.
func TestVerdicts(t *testing.T) {
	host, _ := lookup("run_s")
	virt, _ := lookup("latency_us_p50")
	s := func(med, lo, hi float64) Summary { return Summary{Median: med, Min: lo, Q1: lo, Q3: hi, Max: hi} }
	for _, c := range []struct {
		m         Metric
		base, new Summary
		want      string
	}{
		{host, s(1, 0.99, 1.01), s(1.02, 1.01, 1.03), Unchanged},
		{host, s(1, 0.99, 1.01), s(1.4, 1.39, 1.41), Regressed},
		{host, s(1, 0.99, 1.01), s(0.6, 0.59, 0.61), Improved},
		{host, s(1, 0.5, 1.5), s(1.05, 1.0, 1.1), Unresolved},
		{host, s(1, 0.5, 1.5), s(0.4, 0.3, 0.45), Improved},
		{virt, s(100, 100, 100), s(100.001, 100.001, 100.001), Regressed},
		{virt, s(100, 100, 100), s(100, 100, 100), Unchanged},
	} {
		if got := verdict(c.m, c.base, c.new); got != c.want {
			t.Errorf("%s %+v -> %+v: %s, want %s", c.m.Name, c.base, c.new, got, c.want)
		}
	}
}
