package scenario

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/loadbal"
	ipm2 "repro/internal/pm2"
	"repro/internal/policy"
	"repro/internal/scenario/serve"
	"repro/internal/simtime"
)

// balancePeriod is the harness's balancing cadence: short enough that
// every scenario sees multiple rounds, long enough that threads make
// progress between them.
const balancePeriod = 2 * simtime.Millisecond

// maxSteps bounds a run; a drained engine well under the bound is the
// expected outcome, hitting it means a scenario ran away.
const maxSteps = 10_000_000

// Result is one completed harness run.
type Result struct {
	Spec Spec
	// Trace is the canonical event trace: header, time-stamped
	// placement and migration decisions, end summary, program output.
	// Byte-identical across runs of the same Spec.
	Trace []string
	// Output is the cluster's pm2_printf trace.
	Output []string
	// Stats is the cluster's aggregate measurements.
	Stats ipm2.Stats
	// BalancerMoves counts migrations the balancer requested.
	BalancerMoves int
	// ThreadsLeft is the per-node resident count at the end of the run
	// (all zeros when every thread exited).
	ThreadsLeft []int
	// VirtualMicros is the total virtual time consumed.
	VirtualMicros float64
	// Steps is the number of engine events the run executed — the cost
	// the step budget (Spec.MaxSteps) is charged against.
	Steps uint64
	// Saturated reports that the run exhausted its step budget with
	// work still pending: the offered load outran the cluster. The
	// Result is the partial measurement up to the cutoff. Only runs
	// with Spec.AllowSaturated reach callers in this state.
	Saturated bool
	// Drained is the cluster's CheckDrained verdict after the run: nil
	// when no negotiation, lock or call record was left waiting. Not
	// checked for saturated runs, which stop with work in flight.
	Drained error

	expects []expectation
}

// Percentiles summarizes a latency distribution in microseconds. It is
// the shared nearest-rank helper from internal/pm2 — one
// implementation, used by the harness, the cohort SLO accounting, and
// the bench tables alike.
type Percentiles = ipm2.Percentiles

// NegotiationPercentiles summarizes the run's negotiation latencies.
func (r *Result) NegotiationPercentiles() Percentiles {
	return ipm2.NearestRank(r.Stats.NegotiationLatencies)
}

// MigrationPercentiles summarizes the run's migration latencies.
func (r *Result) MigrationPercentiles() Percentiles {
	return ipm2.NearestRank(r.Stats.MigrationLatencies)
}

// CohortSLO is one cohort's per-request service summary.
type CohortSLO struct {
	// Cohort is the tenant name.
	Cohort string
	// Requests counts tagged spawns; Completed counts those whose
	// thread exited before the run (or its step budget) ended. They
	// differ only on saturated runs.
	Requests  int
	Completed int
	// Placement is time-to-placement (spawn request to running thread,
	// including any §4.4 slot negotiation); EndToEnd is arrival to
	// thread exit. Both over completed samples only, nearest-rank, µs.
	Placement Percentiles
	EndToEnd  Percentiles
}

// CohortSLOs summarizes the per-request accounting by cohort, sorted by
// cohort name. Empty for scenarios that never tag a spawn.
func (r *Result) CohortSLOs() []CohortSLO {
	byName := map[string]*CohortSLO{}
	place := map[string][]simtime.Time{}
	e2e := map[string][]simtime.Time{}
	var names []string
	for _, s := range r.Stats.CohortSamples {
		c := byName[s.Cohort]
		if c == nil {
			c = &CohortSLO{Cohort: s.Cohort}
			byName[s.Cohort] = c
			names = append(names, s.Cohort)
		}
		c.Requests++
		if s.Done {
			c.Completed++
			place[s.Cohort] = append(place[s.Cohort], s.PlacementLatency())
			e2e[s.Cohort] = append(e2e[s.Cohort], s.EndToEndLatency())
		}
	}
	sort.Strings(names)
	out := make([]CohortSLO, 0, len(names))
	for _, n := range names {
		c := byName[n]
		c.Placement = ipm2.NearestRank(place[n])
		c.EndToEnd = ipm2.NearestRank(e2e[n])
		out = append(out, *c)
	}
	return out
}

// TraceString renders the canonical trace, one line each, newline
// terminated.
func (r *Result) TraceString() string { return strings.Join(r.Trace, "\n") + "\n" }

// Verify checks the run produced exactly the output the generator
// promised: every spawned worker finished, every chain unwound to the
// correct sum. Together with the cluster invariant check this is the
// "pointers survive migration" property, policy-independent.
func (r *Result) Verify() error {
	for _, e := range r.expects {
		got := 0
		for _, l := range r.Output {
			if strings.Contains(l, e.substr) {
				got++
			}
		}
		if got != e.count {
			return fmt.Errorf("scenario %s/%s: output lines containing %q = %d, want %d",
				r.Spec.Scenario, r.Spec.Policy, e.substr, got, e.count)
		}
	}
	return nil
}

// Run executes one scenario under one policy and returns its result.
func Run(spec Spec) (*Result, error) {
	return run(spec, nil)
}

// Replay executes a pre-expanded serve request stream under the
// harness, bypassing synthesis: the stream on the wire is the stream
// that runs. The live serve generator and Replay share the scheduling
// path, so replaying a recorded trace with the same Spec reproduces the
// live run's canonical trace byte for byte. Replay is also how the
// bench saturation sweep injects rate-scaled streams.
func Replay(spec Spec, reqs []serve.Request) (*Result, error) {
	if spec.Scenario == "" {
		spec.Scenario = "serve"
	}
	return run(spec, reqs)
}

// ReplayFromCheckpoint is Replay against a restored cluster: the
// request stream continues a pm2ckpt capture instead of a fresh boot.
// The engine clock resumes at the checkpoint's quiescent instant, so
// every request's arrival time is shifted by ck.Now — a trace recorded
// against a checkpoint replays the same relative arrival schedule no
// matter when the capture was taken. Structural parameters the spec
// leaves free (distribution, convoy, pack, heartbeat lease) are taken
// from the checkpoint; the ones the spec does fix (nodes, policy,
// gather, arbiter) must match it, enforced by RestoreCluster.
func ReplayFromCheckpoint(spec Spec, reqs []serve.Request, ck *ipm2.Checkpoint) (*Result, error) {
	if spec.Scenario == "" {
		spec.Scenario = "serve"
	}
	spec = spec.withDefaults()
	pol, err := policy.Parse(spec.Policy)
	if err != nil {
		return nil, err
	}
	spec.Policy = pol.Name()
	gather, err := ipm2.ParseGatherMode(spec.Gather)
	if err != nil {
		return nil, err
	}
	spec.Gather = gather.String()
	arbiter, err := ipm2.ParseArbiterMode(spec.Arbiter)
	if err != nil {
		return nil, err
	}
	spec.Arbiter = arbiter.String()
	cfg, err := ck.Config()
	if err != nil {
		return nil, err
	}

	im := Image()
	if err := checkRequests(reqs, spec.Nodes, im); err != nil {
		return nil, err
	}

	rec := &recorder{}
	cfg.Nodes, cfg.Gather, cfg.Arbiter = spec.Nodes, gather, arbiter
	cfg.Placement = &recordingPolicy{inner: pol, rec: rec}
	cfg.RPCTimeout = rpcTimeout(spec, 0)
	cl, err := ipm2.RestoreCluster(cfg, im, ck)
	if err != nil {
		return nil, err
	}

	rec.logf("scenario=%s policy=%s nodes=%d seed=%d ckpt=%016x", spec.Scenario, spec.Policy, spec.Nodes, spec.Seed, ck.Digest())
	d := &Driver{spec: spec, cl: cl, r: NewRand(spec.Seed), rec: rec}
	shifted := make([]serve.Request, len(reqs))
	for i, q := range reqs {
		q.At += ck.Now
		shifted[i] = q
	}
	d.scheduleRequests(shifted)
	return finish(spec, d, cl, rec)
}

// checkRequests refuses a replay stream the run could not schedule: a
// program the image lacks, or a preferred node outside the cluster.
func checkRequests(reqs []serve.Request, nodes int, im *isa.Image) error {
	for i, q := range reqs {
		if _, ok := im.EntryOf(q.Prog); !ok {
			return fmt.Errorf("scenario: request %d: unknown program %q", i+1, q.Prog)
		}
		if q.Pref < 0 || q.Pref >= nodes {
			return fmt.Errorf("scenario: request %d: pref %d outside %d nodes", i+1, q.Pref, nodes)
		}
	}
	return nil
}

// rpcTimeout resolves the deadline-layer setting for a run: an explicit
// Spec.RPCTimeoutMicros wins (> 0 a deadline in µs, < 0 the cost-model
// default), otherwise the generator's own default applies — zero (off)
// for every generator except partition, so the pre-existing goldens run
// the machinery-free path byte for byte.
func rpcTimeout(spec Spec, genDefault simtime.Time) simtime.Time {
	switch {
	case spec.RPCTimeoutMicros > 0:
		return simtime.Time(spec.RPCTimeoutMicros) * simtime.Microsecond
	case spec.RPCTimeoutMicros < 0:
		return -1
	default:
		return genDefault
	}
}

// run is the shared harness body: replay == nil plans via the spec's
// generator, otherwise the replay stream is scheduled directly.
func run(spec Spec, replay []serve.Request) (*Result, error) {
	spec = spec.withDefaults()
	gen, ok := LookupGenerator(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown generator %q (have %v)", spec.Scenario, GeneratorNames())
	}
	pol, err := policy.Parse(spec.Policy)
	if err != nil {
		return nil, err
	}
	spec.Policy = pol.Name()
	gather, err := ipm2.ParseGatherMode(spec.Gather)
	if err != nil {
		return nil, err
	}
	spec.Gather = gather.String()
	arbiter, err := ipm2.ParseArbiterMode(spec.Arbiter)
	if err != nil {
		return nil, err
	}
	spec.Arbiter = arbiter.String()
	im := Image()
	if err := checkRequests(replay, spec.Nodes, im); err != nil {
		return nil, err
	}

	rec := &recorder{}
	cl, err := ipm2.NewChecked(ipm2.Config{
		Nodes:      spec.Nodes,
		Gather:     gather,
		Arbiter:    arbiter,
		Placement:  &recordingPolicy{inner: pol, rec: rec},
		RPCTimeout: rpcTimeout(spec, gen.RPCTimeout),
	}, im)
	if err != nil {
		return nil, err
	}

	rec.logf("scenario=%s policy=%s nodes=%d seed=%d", spec.Scenario, spec.Policy, spec.Nodes, spec.Seed)
	d := &Driver{spec: spec, cl: cl, r: NewRand(spec.Seed), rec: rec}
	if replay != nil {
		d.scheduleRequests(replay)
	} else {
		gen.Plan(d)
	}
	return finish(spec, d, cl, rec)
}

// finish is the harness tail shared by fresh-boot and
// restored-from-checkpoint runs: attach the balancer, drive the engine
// to quiescence (or the step budget), check invariants, assemble the
// Result and seal the canonical trace.
func finish(spec Spec, d *Driver, cl *ipm2.Cluster, rec *recorder) (*Result, error) {
	bal := loadbal.Attach(cl, loadbal.Config{
		Period:         balancePeriod,
		KeepAliveUntil: d.horizon + 2*balancePeriod,
	})

	budget := uint64(maxSteps)
	if spec.MaxSteps > 0 {
		budget = uint64(spec.MaxSteps)
	}
	cl.Run(budget)
	saturated := cl.Engine().Pending() > 0
	if saturated && !spec.AllowSaturated {
		// Closed-loop scenarios must drain: an exhausted budget there is
		// a runaway run, not a measurement.
		return nil, fmt.Errorf("scenario %s/%s: engine not drained after %d steps", spec.Scenario, spec.Policy, budget)
	}
	if !saturated {
		// Invariants are checked on quiescent clusters only; a saturated
		// cutoff legitimately leaves threads and messages in flight.
		if err := cl.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("scenario %s/%s: %w", spec.Scenario, spec.Policy, err)
		}
	}

	res := &Result{
		Spec:          spec,
		Output:        cl.Trace().Lines(),
		Stats:         cl.Stats(),
		BalancerMoves: bal.Moves(),
		VirtualMicros: cl.Now().Micros(),
		Steps:         cl.Engine().Steps(),
		Saturated:     saturated,
		expects:       d.expects,
	}
	if !saturated {
		res.Drained = cl.CheckDrained()
	}
	threads := make([]string, spec.Nodes)
	res.ThreadsLeft = make([]int, spec.Nodes)
	for i := 0; i < spec.Nodes; i++ {
		res.ThreadsLeft[i] = cl.Node(i).Scheduler().Threads()
		threads[i] = fmt.Sprint(res.ThreadsLeft[i])
	}
	rec.logf("end virtual=%.3fus migrations=%d negotiations=%d balmoves=%d threads=[%s]",
		res.VirtualMicros, res.Stats.Migrations, res.Stats.Negotiations,
		res.BalancerMoves, strings.Join(threads, " "))
	rec.lines = append(rec.lines, "-- output --")
	rec.lines = append(rec.lines, res.Output...)
	res.Trace = rec.lines
	return res, nil
}

// recorder accumulates the canonical trace. Appends happen from events
// the kernel runs in its deterministic (at, seq) order, so the trace
// bytes are a pure function of the spec.
type recorder struct {
	lines []string
}

func (r *recorder) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// recordingPolicy wraps the policy under test, logging every placement
// and migration decision into the canonical trace.
type recordingPolicy struct {
	inner policy.Policy
	rec   *recorder
}

// ReroutesSpawns keeps the runtime consulting PickSpawn for every
// policy under test, so every trace records spawn placement — even for
// policies that never reroute.
func (p *recordingPolicy) ReroutesSpawns() bool { return true }

func (p *recordingPolicy) Name() string                     { return p.inner.Name() }
func (p *recordingPolicy) OnLoadReport(r policy.LoadReport) { p.inner.OnLoadReport(r) }
func (p *recordingPolicy) ShouldMigrate(v policy.View) bool { return p.inner.ShouldMigrate(v) }

func (p *recordingPolicy) PickTarget(v policy.View) []policy.Move {
	moves := p.inner.PickTarget(v)
	if len(moves) > 0 {
		strs := make([]string, len(moves))
		for i, m := range moves {
			strs[i] = m.String()
		}
		p.rec.logf("t=%.3f moves %s", v.Now.Micros(), strings.Join(strs, " "))
	}
	return moves
}

func (p *recordingPolicy) PickSpawn(pref int, v policy.View) int {
	n := p.inner.PickSpawn(pref, v)
	p.rec.logf("t=%.3f place pref=%d node=%d", v.Now.Micros(), pref, n)
	return n
}
