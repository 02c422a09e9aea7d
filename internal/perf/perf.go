// Package perf is the repository benchmark: five workloads that drive the
// PM2 runtime end to end, the metrics a user of the runtime sees, the
// per-layer counters and probes that explain them, and a traced pass that
// records spans and a CPU profile. cmd/pm2perf is its command line; the
// README in this directory is the glossary.
//
// Two clocks are reported. Virtual metrics come from the calibrated cost
// model and are deterministic: every repetition, and the traced pass, must
// reproduce them exactly, and the benchmark checks that it does. Host
// metrics measure the simulator on the machine: each workload runs one
// untimed warm-up with the full correctness checks, then timed
// repetitions (runtime.GC before each) whose medians are reported, the
// end-to-end times in reference seconds (calibrate.go). Every repetition
// builds a fresh cluster, so slot caches and the Madeleine buffer pool
// start cold, as they do for a user.
package perf

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	ipm2 "repro/internal/pm2"
	"repro/internal/simtime"
)

// minReps is the fewest timed repetitions a workload runs.
const minReps = 5

// repBudget bounds the wall time spent on timed repetitions past minReps,
// so one invocation stays well inside a three-minute limit.
const repBudget = 120 * time.Second

// Options select what one invocation runs.
type Options struct {
	// Seed derives every input of every workload.
	Seed uint64
	// Seconds is the host time the timed repetitions should cover; they
	// continue past minReps until it is reached. Zero runs minReps.
	Seconds float64
	// Trace adds the traced pass: spans, a CPU profile, probes and the
	// layer metrics that need them.
	Trace bool
	// TraceDir, when set, receives spans.jsonl and trace.json per workload.
	TraceDir string
	// Small shrinks every workload for tests and skips the host-speed
	// calibration (reference seconds are then wall seconds).
	Small bool
	// Progress, when set, receives one line per finished phase.
	Progress io.Writer
}

// Summary is one metric's value over the repetitions.
type Summary struct {
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	// Samples is the number of repetitions (or passes) measured.
	Samples int `json:"samples"`
	// Count is the number of observations behind a percentile.
	Count int `json:"count,omitempty"`
}

// Result is one workload's outcome.
type Result struct {
	Workload string `json:"workload"`
	// Digest is the FNV-1a hash of the workload's inputs: program
	// sources, configuration, thread arguments, request stream, faults.
	Digest    string             `json:"digest"`
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]Summary `json:"metrics"`
}

// observation is what one pass measured on its quiescent cluster.
type observation struct {
	// values are the virtual metrics and counters: identical in every
	// untraced pass of a plan.
	values map[string]float64
	// counts are the sample counts behind percentile metrics.
	counts            map[string]int
	attempted, failed int
	// output hashes the cluster's pm2_printf trace.
	output uint64
}

// sliceDependent metrics describe how the parallel kernel cut the event
// stream into windows; the traced pass's 1 ms slices cut it differently,
// so they are taken from untraced passes and not compared.
var sliceDependent = map[string]bool{"simtime.window_lanes": true, "simtime.parallel_share": true}

// pass is one execution of a plan.
type pass struct {
	setup, run time.Duration
	// calib is the median calibration kernel time around the pass, in
	// seconds (timed repetitions only).
	calib      float64
	heapInuse  uint64
	allocBytes uint64
	gcs        uint32
	// host holds the pass's other host measurements.
	host map[string]float64
	// inst is the live cluster, kept only while it is to be verified.
	inst *instance
	obs  *observation
}

// execute builds a fresh cluster, drains it and observes the result.
// sp is nil for untraced passes.
func execute(p *plan, sp *spanLog) *pass {
	runtime.GC()
	var m1, m2, m3 runtime.MemStats
	t0 := time.Now()
	sp.begin("setup", nil)
	inst := p.setup(sp)
	sp.end(inst.cl)
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	t2 := time.Now()
	sp.begin("drain", inst.cl)
	if inst.drain != nil {
		inst.drain(sp)
	} else {
		drainCluster(inst.cl, sp)
	}
	sp.end(inst.cl)
	t3 := time.Now()
	runtime.ReadMemStats(&m2)
	runtime.GC()
	runtime.ReadMemStats(&m3)
	ps := &pass{
		setup: t1.Sub(t0), run: t3.Sub(t2),
		heapInuse:  m3.HeapInuse,
		allocBytes: m2.TotalAlloc - m1.TotalAlloc,
		gcs:        m2.NumGC - m1.NumGC,
		host:       map[string]float64{},
		inst:       inst,
		obs:        observe(inst),
	}
	for k, x := range inst.host {
		ps.host[k] = x
	}
	gets, hits := inst.cl.BufferPoolStats()
	ps.host["madeleine.pool_hit_ratio"] = ratio(float64(hits), float64(gets))
	ps.host["core.setup_us_per_node"] = float64(inst.newTime.Nanoseconds()) / 1e3 / float64(inst.nodes)
	return ps
}

const mb = 1 << 20

// observe reads the quiescent cluster's public counters.
func observe(inst *instance) *observation {
	cl := inst.cl
	st := cl.Stats()
	o := &observation{values: map[string]float64{}, counts: map[string]int{}}
	v := o.values
	for k, x := range inst.virt {
		v[k] = x
	}

	var created, finished, dispatches, instrs uint64
	var busy simtime.Time
	for i := 0; i < cl.Nodes(); i++ {
		n := cl.Node(i)
		c, f, _, d, in := n.Scheduler().Stats()
		created, finished, dispatches, instrs = created+c, finished+f, dispatches+d, instrs+in
		if b := n.Actor().BusyUntil(); b > busy {
			busy = b
		}
	}
	steps := cl.Engine().Steps()
	v["simtime.events"] = float64(steps)
	ws := cl.Engine().WindowStats()
	v["simtime.window_lanes"] = ratio(float64(ws.Participants), float64(ws.ParallelWindows))
	v["simtime.parallel_share"] = ratio(float64(ws.ParallelEvents), float64(steps))
	v["vm.instrs"] = float64(instrs)
	v["marcel.dispatches"] = float64(dispatches)
	v["pm2.migrations"] = float64(st.Migrations)
	v["pm2.migrated_mb"] = float64(st.MigratedBytes) / mb
	v["bip.messages"] = float64(st.Net.Messages)
	v["bip.mb"] = float64(st.Net.Bytes) / mb
	v["bip.dropped"] = float64(st.Net.Dropped)
	v["pm2.negotiations"] = float64(st.Negotiations)
	v["pm2.negotiation_retries"] = float64(st.NegotiationRetries)
	v["pm2.version_declines"] = float64(st.VersionDeclines)
	v["pm2.negotiation_failures"] = float64(st.NegotiationFailures)
	v["pm2.purchase_yield"] = ratio(float64(st.Negotiations-st.NegotiationFailures), float64(st.Negotiations+st.NegotiationRetries))
	v["bitmap.merged_mb"] = float64(st.GatherMergedBytes) / mb
	if inst.bal != nil {
		v["loadbal.rounds"] = float64(inst.bal.Rounds())
		v["loadbal.moves"] = float64(inst.bal.Moves())
		v["loadbal.move_share"] = ratio(float64(inst.bal.Moves()), float64(inst.bal.Rounds()))
	}
	v["pm2.rpc_timeouts"] = float64(st.RPCTimeouts)
	v["pm2.suspicions"] = float64(st.Suspicions)
	v["pm2.rejoins"] = float64(st.Rejoins)
	v["pm2.detect_us"] = maxTime(st.DetectionLatencies).Micros()
	v["pm2.rejoin_us"] = maxTime(st.RejoinLatencies).Micros()
	v["pm2.evacuated_threads"] = float64(st.EvacuatedThreads)
	v["pm2.reclaimed_slots"] = float64(st.ReclaimedSlots)
	if len(st.DetectionLatencies) > 0 {
		v["pm2.recovery_us"] = (maxTime(st.DetectionLatencies) + maxTime(st.EvacuationLatencies)).Micros()
	}
	v["pm2.migration_us_p50"] = ipm2.NearestRank(st.MigrationLatencies).P50
	v["pm2.negotiation_us_p50"] = ipm2.NearestRank(st.NegotiationLatencies).P50

	var placed, requests []simtime.Time
	var makespan simtime.Time
	for _, s := range st.CohortSamples {
		if s.PlacedOK {
			placed = append(placed, s.PlacementLatency())
		}
		if s.Done && s.Cohort != sideLoad {
			requests = append(requests, s.EndToEndLatency())
			if s.Finished > makespan {
				makespan = s.Finished
			}
		}
	}
	v["pm2.placement_us_p99"] = ipm2.NearestRank(placed).P99
	o.counts["pm2.placement_us_p99"] = len(placed)
	v["makespan_us"] = makespan.Micros()
	if busy > makespan {
		v["pm2.rpc_tail_us"] = (busy - makespan).Micros()
	}

	lat := requests
	switch inst.op {
	case opMigration:
		lat = st.MigrationLatencies
	case opNegotiation:
		lat = st.NegotiationLatencies
	}
	pct := ipm2.NearestRank(lat)
	v["latency_us_p50"], v["latency_us_p99"] = pct.P50, pct.P99
	o.counts["latency_us_p50"], o.counts["latency_us_p99"] = len(lat), len(lat)

	o.attempted = int(created) + st.Negotiations
	o.failed = int(created-finished) + st.NegotiationFailures
	v["failed_ratio"] = ratio(float64(o.failed), float64(o.attempted))

	h := fnv.New64a()
	for _, l := range cl.Trace().Lines() {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	o.output = h.Sum64()
	return o
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxTime(ts []simtime.Time) simtime.Time {
	var m simtime.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// verify runs the full correctness checks on a quiescent pass.
func verify(p *plan, ps *pass, small bool) []string {
	inst, o := ps.inst, ps.obs
	cl := inst.cl
	var out []string
	if cl.Engine().Pending() != 0 {
		out = append(out, "cluster not quiescent after the drain")
	}
	if err := cl.CheckInvariants(); err != nil {
		out = append(out, fmt.Sprintf("invariants: %v", err))
	}
	out = append(out, checkOutput(cl.Trace().Lines(), finishedThreads(cl), p.chainSums)...)
	if !inst.rpcTimeoutsOK && o.values["pm2.rpc_timeouts"] != 0 {
		out = append(out, fmt.Sprintf("%v RPC timeouts on a healthy cluster", o.values["pm2.rpc_timeouts"]))
	}
	if !small && o.counts["latency_us_p99"] < 1000 {
		out = append(out, fmt.Sprintf("latency_us_p99 over %d samples; the workload must give at least 1,000", o.counts["latency_us_p99"]))
	}
	if inst.check != nil {
		out = append(out, inst.check(o)...)
	}
	return out
}

// finishedThreads counts the threads that exited normally, cluster-wide.
func finishedThreads(cl *ipm2.Cluster) uint64 {
	var n uint64
	for i := 0; i < cl.Nodes(); i++ {
		_, f, _, _, _ := cl.Node(i).Scheduler().Stats()
		n += f
	}
	return n
}

// completionMarks are the lines a guest thread prints as it exits.
var completionMarks = []string{" finished on node ", "chain sum = ", " freed on node ", " done on node ", " failed on node "}

// checkOutput checks the program output: no corrupted marker, one
// completion line per exited thread, and every chain sum one the inputs
// asked for.
func checkOutput(lines []string, finished uint64, sums []int) []string {
	var out []string
	want := map[int]int{}
	for _, s := range sums {
		want[s]++
	}
	var completions uint64
	bad := 0
	for _, l := range lines {
		if strings.Contains(l, "BAD") {
			bad++
		}
		for _, m := range completionMarks {
			if strings.Contains(l, m) {
				completions++
				break
			}
		}
		if _, rest, ok := strings.Cut(l, "chain sum = "); ok {
			var s int
			if _, err := fmt.Sscanf(rest, "%d", &s); err != nil || want[s] == 0 {
				out = append(out, fmt.Sprintf("unexpected chain output %q", l))
				continue
			}
			want[s]--
		}
	}
	if bad > 0 {
		out = append(out, fmt.Sprintf("%d BAD marker lines", bad))
	}
	if completions != finished {
		out = append(out, fmt.Sprintf("%d completion lines for %d exited threads", completions, finished))
	}
	return out
}

// sameVirtual reports the first virtual quantity that differs between
// two passes of one plan.
func sameVirtual(a, b *observation, traced bool) string {
	for k, x := range a.values {
		if traced && sliceDependent[k] {
			continue
		}
		if y := b.values[k]; x != y {
			return fmt.Sprintf("%s %v vs %v", k, x, y)
		}
	}
	switch {
	case len(a.values) != len(b.values):
		return "different metric sets"
	case a.output != b.output:
		return "program output differs"
	case a.attempted != b.attempted || a.failed != b.failed:
		return "attempted/failed differ"
	}
	return ""
}

// digest hashes a workload's inputs.
func digest(name string, p *plan) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n%s\n", name, p.inputs)
	for _, src := range programSources {
		h.Write([]byte(src))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Run executes one workload.
func Run(name string, opts Options) (*Result, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("perf: unknown workload %q (have %s)", name, strings.Join(Workloads(), ", "))
	}
	start := time.Now()
	res := &Result{Workload: name, Metrics: map[string]Summary{}}
	values := map[string][]float64{}
	counts := map[string]int{}
	add := func(k string, x float64) { values[k] = append(values[k], x) }
	note := func(format string, args ...any) {
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%s: %s\n", name, fmt.Sprintf(format, args...))
		}
	}

	paper, problems := paperFigures()
	res.Problems = append(res.Problems, problems...)
	if w.plan == nil {
		for k, x := range paper {
			add(k, x)
		}
		res.Reps = 1
		res.finish(values, counts, false)
		return res, nil
	}

	p, err := w.plan(opts.Seed, opts.Small)
	if err != nil {
		return nil, err
	}
	res.Digest = digest(name, p)
	if want, ok := seed1Digests[name]; ok && opts.Seed == 1 && !opts.Small && want != res.Digest {
		res.Problems = append(res.Problems, fmt.Sprintf("seed-1 input digest %s, pinned %s: the workload's inputs changed", res.Digest, want))
	}

	warm := execute(p, nil)
	t := time.Now()
	res.Problems = append(res.Problems, verify(p, warm, opts.Small)...)
	verifyS := time.Since(t).Seconds()
	note("warm-up %.2fs, checks %.2fs", (warm.setup + warm.run).Seconds(), verifyS)
	res.Attempted, res.Failed = warm.obs.attempted, warm.obs.failed
	base := warm.obs
	warm.inst = nil

	calThreads := p.workers
	if opts.Small {
		calThreads = 0
	}
	var reps []*pass
	var measured time.Duration
	for len(reps) < minReps || (measured.Seconds() < opts.Seconds && time.Since(start) < repBudget) {
		before := calibrate(calThreads)
		ps := execute(p, nil)
		ps.calib = median(append(before, calibrate(calThreads)...))
		if d := sameVirtual(base, ps.obs, false); d != "" {
			res.Problems = append(res.Problems, fmt.Sprintf("repetition %d diverged: %s", len(reps)+1, d))
		}
		ps.inst = nil
		reps = append(reps, ps)
		measured += ps.setup + ps.run
		note("rep %d setup %.3fs run %.3fs calibration %.1fms", len(reps), ps.setup.Seconds(), ps.run.Seconds(), ps.calib*1e3)
	}
	res.Reps = len(reps)

	for _, ps := range reps {
		run := ps.run.Seconds()
		add("setup_s", toReference(ps.setup, ps.calib))
		add("run_s", toReference(ps.run, ps.calib))
		add("host.run_wall_s", run)
		add("host.calibration_ms", ps.calib*1e3)
		add("live_heap_mb", float64(ps.heapInuse)/mb)
		add("host.alloc_mb", float64(ps.allocBytes)/mb)
		add("host.gc_cycles", float64(ps.gcs))
		add("simtime.ns_per_event", ratio(run*1e9, base.values["simtime.events"]))
		add("host.alloc_kb_per_migration", ratio(float64(ps.allocBytes)/1024, base.values["pm2.migrations"]))
		for k, x := range ps.host {
			add(k, x)
		}
		for k, x := range base.values {
			add(k, x)
		}
	}
	for k, n := range base.counts {
		counts[k] = n
	}
	add("verify_s", verifyS)

	if opts.Trace {
		if err := tracedPass(name, p, opts, base, median(values["host.run_wall_s"]), res, add); err != nil {
			return nil, err
		}
	}
	res.finish(values, counts, opts.Trace)
	return res, nil
}

// tracedPass re-runs the workload with spans and a CPU profile, checks it
// against the untraced passes, and adds the metrics only it measures.
func tracedPass(name string, p *plan, opts Options, base *observation, untracedRun float64, res *Result, add func(string, float64)) error {
	sp := newSpanLog()
	var prof bytes.Buffer
	profiling := pprof.StartCPUProfile(&prof) == nil
	tr := execute(p, sp)
	if profiling {
		pprof.StopCPUProfile()
	}
	sp.begin("verify", tr.inst.cl)
	res.Problems = append(res.Problems, verify(p, tr, opts.Small)...)
	if d := sameVirtual(base, tr.obs, true); d != "" {
		res.Problems = append(res.Problems, "traced pass diverged: "+d)
	}
	sp.end(tr.inst.cl)
	tr.inst = nil
	add("trace.overhead_pct", 100*(tr.run.Seconds()/untracedRun-1))

	rate := 0.0
	if name == "serve" {
		var err error
		if rate, err = serveLadder(opts.Seed, opts.Small, sp); err != nil {
			return err
		}
	}
	add("serve.sustainable_rate_x", rate)

	instrs, rounds := 5_000_000, 20_000
	if opts.Small {
		instrs, rounds = 500_000, 2_000
	}
	sp.begin("probe.vm", nil)
	add("vm.ns_per_instr", probeVM(instrs))
	sp.end(nil)
	sp.begin("probe.madeleine", nil)
	add("madeleine.pack_ns_per_byte", probePack(rounds))
	sp.end(nil)
	sp.begin("probe.bitmap", nil)
	add("bitmap.or_ns_per_word", probeBitmapOr(rounds))
	sp.end(nil)

	shares := map[string]float64{}
	if profiling {
		var err error
		if shares, err = selfShares(prof.Bytes()); err != nil {
			return err
		}
	}
	for _, g := range selfGroups {
		add("self."+g+"_pct", shares[g])
	}
	if opts.TraceDir != "" {
		return sp.write(filepath.Join(opts.TraceDir, name))
	}
	return nil
}

// finish summarizes the collected samples. Every layer metric is present
// (zero where the workload never exercises the layer) so a traced report
// always carries the full per-layer set.
func (r *Result) finish(values map[string][]float64, counts map[string]int, traced bool) {
	for _, m := range catalog {
		xs, ok := values[m.Name]
		if !ok {
			if m.Kind != Layer || r.Workload == "paper" || (!traced && tracedOnly(m.Name)) {
				continue
			}
			xs = []float64{0}
		}
		r.Metrics[m.Name] = Summary{
			Unit: m.Unit, Clock: m.Clock, Median: median(xs),
			Min: quantile(xs, 0), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), Max: quantile(xs, 1),
			Samples: len(xs), Count: counts[m.Name],
		}
	}
	r.Correct = len(r.Problems) == 0
}

// tracedOnly reports whether a layer metric is measured only by the
// traced pass.
func tracedOnly(name string) bool {
	switch name {
	case "vm.ns_per_instr", "madeleine.pack_ns_per_byte", "bitmap.or_ns_per_word",
		"trace.overhead_pct", "serve.sustainable_rate_x":
		return true
	}
	return strings.HasPrefix(name, "self.")
}

// quantile returns the p-quantile of xs by the exclusive method (the
// default of Python's statistics.quantiles); p = 0.5 is the median, 0 and
// 1 the extremes.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	h := p * float64(n+1)
	i := int(h)
	switch {
	case i < 1:
		return s[0]
	case i >= n:
		return s[n-1]
	}
	return s[i-1] + (h-float64(i))*(s[i]-s[i-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Report is the -json output of one invocation.
type Report struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	Results    []*Result `json:"results"`
}

// NewReport starts a report for the running process.
func NewReport(opts Options) *Report {
	return &Report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opts.Seed, Seconds: opts.Seconds, Traced: opts.Trace}
}

// Result returns the named workload's result, or nil.
func (r *Report) Result(name string) *Result {
	for _, res := range r.Results {
		if res.Workload == name {
			return res
		}
	}
	return nil
}
