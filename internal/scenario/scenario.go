// Package scenario is the deterministic workload harness for the
// migration-policy engine (internal/policy): parameterized generators —
// burst spawn, skewed hotspot, churn, deep-stack chains, negotiation
// stress, arbiter contention, and the open-loop multi-tenant serving
// workload (serve, backed by internal/scenario/serve) — drive the
// virtual-time cluster under a chosen policy and emit comparable
// per-policy stats plus a canonical event trace.
//
// Everything is deterministic: the generators draw from a seeded
// splitmix64 stream (internal/rng), the cluster runs in discrete
// virtual time, and the policies are deterministic by contract. The
// same (scenario, policy, nodes, seed) tuple therefore produces a
// byte-identical trace, which is what the golden-trace regression tests
// pin down — and what lets a recorded serve trace replay exactly.
package scenario

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/isa"
	ipm2 "repro/internal/pm2"
	"repro/internal/progs"
	"repro/internal/rng"
	"repro/internal/scenario/serve"
	"repro/internal/simtime"
)

// Spec names one harness run.
type Spec struct {
	// Scenario is the generator name (see Generators).
	Scenario string
	// Policy is the placement-policy name (see policy.Parse); empty
	// selects the default negotiation scheme.
	Policy string
	// Nodes is the cluster size (default 4; the harness is routinely
	// exercised at 16 and 64).
	Nodes int
	// Seed feeds the workload PRNG (default 1).
	Seed uint64
	// Gather is the §4.4 bitmap-gather strategy (see
	// pm2.ParseGatherMode); empty selects the paper-faithful sequential
	// gather, which is what every golden trace pins.
	Gather string
	// Arbiter is the negotiation concurrency scheme (see
	// pm2.ParseArbiterMode); empty selects the paper-faithful global
	// lock on node 0.
	Arbiter string
	// RPCTimeoutMicros overrides the partial-failure deadline layer
	// (pm2.Config.RPCTimeout): > 0 is a deadline in virtual µs, < 0
	// selects the cost-model default, and 0 defers to the generator's
	// own setting (off for every generator except partition). It is not
	// part of the trace header.
	RPCTimeoutMicros int64
	// MaxSteps overrides the engine step budget (default 10M). The
	// saturation sweep sets a small budget so past-knee runs cut off
	// cheaply — virtual steps are deterministic, so the cutoff is too.
	MaxSteps int
	// AllowSaturated makes an exhausted step budget a measurement
	// (Result.Saturated) instead of an error. Closed-loop scenarios
	// leave it false: for them an undrained engine is a runaway bug.
	AllowSaturated bool
}

func (s Spec) withDefaults() Spec {
	if s.Nodes <= 0 {
		s.Nodes = 4
	}
	s.Seed = rng.CanonSeed(s.Seed)
	return s
}

// Generator is one parameterized workload shape.
type Generator struct {
	// Name identifies the generator in Specs and trace headers.
	Name string
	// RPCTimeout is the generator's default deadline setting
	// (pm2.Config.RPCTimeout semantics: 0 off, -1 cost-model default),
	// applied when the Spec leaves RPCTimeoutMicros at zero. Only the
	// partition generator turns it on — every pre-existing golden runs
	// with the machinery fully off.
	RPCTimeout simtime.Time
	// Plan schedules the workload onto the driver's cluster.
	Plan func(d *Driver)
}

// Generators lists every workload generator, in canonical order.
func Generators() []Generator {
	return []Generator{burstGen, hotspotGen, churnGen, deepChainGen, negoStressGen, contendGen, serveGen, failoverGen, partitionGen}
}

// LookupGenerator resolves a generator by name.
func LookupGenerator(name string) (Generator, bool) {
	for _, g := range Generators() {
		if g.Name == name {
			return g, true
		}
	}
	return Generator{}, false
}

// GeneratorNames lists the generator names, in canonical order.
func GeneratorNames() []string {
	var out []string
	for _, g := range Generators() {
		out = append(out, g.Name)
	}
	return out
}

// Driver is what a generator plans against: it schedules spawns at
// absolute virtual times, draws randomness from the scenario stream, and
// records what output the run must produce to be considered correct.
type Driver struct {
	spec    Spec
	cl      *ipm2.Cluster
	r       *Rand
	rec     *recorder
	horizon simtime.Time
	expects []expectation
}

type expectation struct {
	substr string
	count  int
}

// Nodes returns the cluster size.
func (d *Driver) Nodes() int { return d.spec.Nodes }

// Rand returns the scenario's deterministic random stream.
func (d *Driver) Rand() *Rand { return d.r }

// SpawnAt schedules program prog with argument arg at virtual time at,
// preferring node pref; the placement policy has the final word.
func (d *Driver) SpawnAt(at simtime.Time, pref int, prog string, arg uint32) {
	d.SpawnCohortAt(at, pref, prog, arg, "")
}

// SpawnCohortAt is SpawnAt with SLO accounting: a non-empty cohort tags
// the thread so the cluster records its time-to-placement and
// end-to-end latency (Stats.CohortSamples). The trace line gains a
// " cohort=x" suffix only when the tag is non-empty, so untagged
// scenarios keep their historical trace bytes.
func (d *Driver) SpawnCohortAt(at simtime.Time, pref int, prog string, arg uint32, cohort string) {
	if at > d.horizon {
		d.horizon = at
	}
	d.cl.Engine().At(at, func() {
		if cohort == "" {
			d.rec.logf("t=%.3f spawn %s/%d pref=%d", at.Micros(), prog, arg, pref)
			d.cl.Spawn(pref, prog, arg)
			return
		}
		d.rec.logf("t=%.3f spawn %s/%d pref=%d cohort=%s", at.Micros(), prog, arg, pref, cohort)
		d.cl.SpawnCohort(pref, prog, arg, cohort)
	})
}

// scheduleRequests schedules an expanded serve request stream — the one
// path shared by the live serve generator and trace replay, so a
// recorded run and its replay schedule identical events and expect
// identical output.
func (d *Driver) scheduleRequests(reqs []serve.Request) {
	for _, q := range reqs {
		d.SpawnCohortAt(q.At, q.Pref, q.Prog, q.Arg, q.Cohort)
		switch q.Prog {
		case "chain":
			n := int(q.Arg)
			d.Expect(fmt.Sprintf("chain sum = %d on node", n*(n+1)/2))
		default:
			d.Expect(" finished on node ")
		}
	}
}

// InjectFault installs a fail-stop fault plan (internal/fault spec
// syntax, e.g. "crash:1@3000") on the run's cluster and records it in
// the canonical trace. Detection rides the harness balancer's existing
// heartbeat rounds — the plan changes nothing about how the generator
// spawns or what it expects. Panics on a malformed spec: generators are
// code, not input.
func (d *Driver) InjectFault(spec string) {
	plan, err := fault.Parse(spec)
	if err != nil {
		panic(fmt.Sprintf("scenario: fault spec: %v", err))
	}
	if err := d.cl.InstallFaults(plan); err != nil {
		panic(fmt.Sprintf("scenario: installing fault plan: %v", err))
	}
	d.rec.logf("fault %s", spec)
}

// Expect records that the run's output must contain a line with substr,
// once per call.
func (d *Driver) Expect(substr string) {
	for i := range d.expects {
		if d.expects[i].substr == substr {
			d.expects[i].count++
			return
		}
	}
	d.expects = append(d.expects, expectation{substr: substr, count: 1})
}

// The generators.

// burstGen models an irregular application phase: a burst of workers all
// created on one node in the same instant — the worst case for the
// negotiation policy's reactive balancing and the best for spread/steal.
var burstGen = Generator{
	Name: "burst",
	Plan: func(d *Driver) {
		r := d.Rand()
		for i := 0; i < 10; i++ {
			d.SpawnAt(0, 0, "worker", uint32(r.Range(8_000, 16_000)))
			d.Expect(" finished on node ")
		}
	},
}

// hotspotGen models a skewed arrival stream: spawns trickle in over time
// and most of them prefer node 0.
var hotspotGen = Generator{
	Name: "hotspot",
	Plan: func(d *Driver) {
		r := d.Rand()
		at := simtime.Time(0)
		for i := 0; i < 12; i++ {
			at += simtime.Time(r.Range(200, 1_200)) * simtime.Microsecond
			pref := 0
			if d.Nodes() > 1 && r.Intn(4) == 0 {
				pref = r.Range(1, d.Nodes()-1)
			}
			d.SpawnAt(at, pref, "worker", uint32(r.Range(4_000, 10_000)))
			d.Expect(" finished on node ")
		}
	},
}

// churnGen models arrival/departure churn: waves of short-lived workers
// landing on rotating nodes, with idle gaps between waves that the
// balancer must survive.
var churnGen = Generator{
	Name: "churn",
	Plan: func(d *Driver) {
		r := d.Rand()
		for wave := 0; wave < 5; wave++ {
			at := simtime.Time(wave) * 3 * simtime.Millisecond
			pref := r.Intn(d.Nodes()) // the whole wave lands on one node
			for j, k := 0, r.Range(2, 4); j < k; j++ {
				d.SpawnAt(at, pref, "worker", uint32(r.Range(5_000, 12_000)))
				d.Expect(" finished on node ")
			}
		}
	},
}

// deepChainGen mixes deep-stack chain threads — which migrate at maximum
// recursion depth, the paper's central stress on the frame chain — with
// background workers the balancer shuffles around them.
var deepChainGen = Generator{
	Name: "deepchain",
	Plan: func(d *Driver) {
		r := d.Rand()
		for i := 0; i < 3; i++ {
			d.SpawnAt(0, 0, "worker", uint32(r.Range(6_000, 9_000)))
			d.Expect(" finished on node ")
		}
		for i := 0; i < 5; i++ {
			at := simtime.Time(i) * 1_500 * simtime.Microsecond
			depth := r.Range(12, 40)
			d.SpawnAt(at, r.Intn(d.Nodes()), "chain", uint32(depth))
			d.Expect(fmt.Sprintf("chain sum = %d on node", depth*(depth+1)/2))
		}
	},
}

// negoStressGen is the allocation-heavy workload: every thread isomallocs
// a multi-slot block (130–250 KB, 3–4 slots), which under the default
// round-robin distribution always fails locally and negotiates — so the
// §4.4 protocol runs under load, with concurrent initiators queueing on
// the node-0 lock manager while the balancer migrates threads around
// them. The worst case for the sequential gather and the workload the
// gather-strategy comparison is measured on.
var negoStressGen = Generator{
	Name: "negostress",
	Plan: func(d *Driver) {
		r := d.Rand()
		at := simtime.Time(0)
		for i := 0; i < 8; i++ {
			at += simtime.Time(r.Range(50, 400)) * simtime.Microsecond
			size := uint32(r.Range(130_000, 250_000))
			d.SpawnAt(at, r.Intn(d.Nodes()), "negostress", size)
			d.Expect(" freed on node ")
		}
	},
}

// contendGen is the arbiter-contention workload: every node fires a
// multi-slot allocation in the same instant (and again half a
// millisecond later), so the maximum number of initiators negotiate
// concurrently. Under the global arbiter they all queue on node 0's
// lock; the sharded arbiter lets the disjoint negotiations overlap — the workload the contention figure and the
// per-arbiter goldens pin down.
var contendGen = Generator{
	Name: "contend",
	Plan: func(d *Driver) {
		r := d.Rand()
		for wave := 0; wave < 2; wave++ {
			at := simtime.Time(wave) * 500 * simtime.Microsecond
			for i := 0; i < d.Nodes(); i++ {
				size := uint32(r.Range(130_000, 250_000))
				d.SpawnAt(at, i, "negostress", size)
				d.Expect(" freed on node ")
			}
		}
	},
}

// serveGen is the open-loop serving workload: the default three-tenant
// spec from internal/scenario/serve (steady api traffic, a diurnal
// sticky batch tenant, sparse deep-stack chains), synthesized for this
// run's seed and cluster size and scheduled with per-cohort SLO
// accounting. Unlike the closed-loop generators above, arrivals do not
// wait for completions — the workload the saturation sweep rate-scales.
var serveGen = Generator{
	Name: "serve",
	Plan: func(d *Driver) {
		reqs, err := serve.DeriveSpec(d.spec.Seed, d.Nodes()).Synthesize(d.Nodes())
		if err != nil {
			// The derived spec is valid by construction; a failure here
			// is a programming error, not an input error.
			panic(fmt.Sprintf("scenario: serve synthesis failed: %v", err))
		}
		d.scheduleRequests(reqs)
	},
}

// failoverGen is the fail-stop workload: long-lived workers spread over
// every node, then one non-root node crashes mid-run. The balancer's
// heartbeat rounds age the victim's lease until it is declared dead, its
// resident threads are evacuated to the survivors as convoys, and its
// owned slot range is reclaimed — every worker still finishes, on
// whichever node it was carried to. The workers' single-slot allocations
// never negotiate, so the trace is byte-identical under every arbiter
// and gather: the failover goldens pin the detection, evacuation and
// reclaim behavior itself, nothing else.
var failoverGen = Generator{
	Name: "failover",
	Plan: func(d *Driver) {
		r := d.Rand()
		for i := 0; i < 2*d.Nodes(); i++ {
			at := simtime.Time(r.Range(0, 400)) * simtime.Microsecond
			d.SpawnAt(at, i%d.Nodes(), "worker", uint32(r.Range(18_000, 40_000)))
			d.Expect(" finished on node ")
		}
		victim := r.Range(1, d.Nodes()-1) // rank 0 hosts the lock manager and cannot crash
		d.InjectFault(fmt.Sprintf("crash:%d@3000", victim))
		d.Expect(fmt.Sprintf("[failover] node %d declared dead", victim))
	},
}

// partitionGen is the partial-failure workload: one live node is cut off
// from every other rank for a 6 ms window mid-run. With the deadline
// layer on (the generator defaults RPCTimeout to the cost-model value),
// a negotiation started during the window abandons its gather requests
// against the unreachable rank after bounded retries instead of hanging,
// the heartbeat rounds suspect the victim — routed around, never
// evacuated, because it is alive — and the healed partition rejoins it
// with every stale cross-node belief dropped. A post-heal spawn wave,
// some of it preferring the rejoined victim, pins that a rejoined node
// serves placements again. Store-and-forward healing means nothing is
// lost: every worker finishes, on the victim included.
var partitionGen = Generator{
	Name:       "partition",
	RPCTimeout: -1, // cost-model default: the partial-failure machinery on
	Plan: func(d *Driver) {
		r := d.Rand()
		for i := 0; i < 2*d.Nodes(); i++ {
			at := simtime.Time(r.Range(0, 400)) * simtime.Microsecond
			d.SpawnAt(at, i%d.Nodes(), "worker", uint32(r.Range(18_000, 40_000)))
			d.Expect(" finished on node ")
		}
		victim := r.Range(1, d.Nodes()-1) // rank 0 hosts the heartbeat vantage
		evs := make([]string, 0, d.Nodes()-1)
		for p := 0; p < d.Nodes(); p++ {
			if p != victim {
				evs = append(evs, fmt.Sprintf("partition:%d-%d@3000..9000", victim, p))
			}
		}
		d.InjectFault(strings.Join(evs, ";"))
		// 2 ms balancer rounds, 2-miss lease: misses at 4 and 6 ms suspect
		// the victim, the 10 ms round (first after the 9 ms heal) rejoins it.
		d.Expect(fmt.Sprintf("[suspect] node %d suspected", victim))
		d.Expect(fmt.Sprintf("[rejoin] node %d rejoined", victim))
		// A multi-slot allocation inside the window: its gather must time
		// out against the victim and the negotiation still succeed on the
		// reachable ranks' slots (2–3 slots, so runs avoiding the victim's
		// interleaved words exist under round-robin).
		d.SpawnAt(4*simtime.Millisecond, 0, "negostress", uint32(r.Range(130_000, 180_000)))
		d.Expect(" freed on node ")
		// Post-heal wave, half of it preferring the rejoined victim.
		for i := 0; i < d.Nodes(); i++ {
			at := simtime.Time(10_400+r.Range(0, 400)) * simtime.Microsecond
			pref := victim
			if i%2 == 1 {
				pref = i % d.Nodes()
			}
			d.SpawnAt(at, pref, "worker", uint32(r.Range(8_000, 16_000)))
			d.Expect(" finished on node ")
		}
	},
}

// negoStressSrc allocates a multi-slot iso-address block of r1 bytes,
// writes a marker through the pointer, yields (inviting a preemptive
// migration), reads the marker back — pointer integrity across the
// negotiation-bought slots — and frees the block where it ended up.
const negoStressSrc = `
.program negostress
.string fmt_done "negostress %u freed on node %d\n"
.string fmt_bad  "negostress BAD marker %d\n"
main:
    enter 8
    store [fp-4], r1        ; size
    callb isomalloc         ; multi-slot: negotiates under round-robin
    store [fp-8], r0
    loadi r2, 0
    beq   r0, r2, fail
    loadi r3, 4051
    store [r0], r3          ; marker through the iso pointer
    callb yield             ; let the balancer move us mid-lifetime
    load  r4, [fp-8]
    load  r5, [r4]          ; read back after any migration
    loadi r3, 4051
    beq   r5, r3, good
    mov   r2, r5
    loadi r1, fmt_bad
    callb printf
    br    out
good:
    load  r1, [fp-8]
    callb isofree           ; released on whatever node we reached
    callb self_node
    mov   r3, r0
    load  r2, [fp-4]
    loadi r1, fmt_done
    callb printf
out:
    leave
    halt
fail:
    loadi r2, 0
    loadi r1, fmt_bad
    callb printf
    leave
    halt
`

// chainSrc is the deep-stack chain program: recurse to depth r1, hop to
// the next node at the deepest point, then unwind summing 1..n — every
// return address and saved frame pointer must survive the mid-recursion
// migration (and any preemptive migrations the balancer adds on top).
const chainSrc = `
.program chain
.string fmt_sum "chain sum = %d on node %d\n"
main:
    enter 4
    store [fp-4], r1      ; depth
    push  r1
    call  crec
    addi  sp, sp, 4
    mov   r2, r0
    callb self_node
    mov   r3, r0
    loadi r1, fmt_sum
    callb printf
    leave
    halt

crec:                     ; arg n at [fp+8]; returns sum 1..n; hops at n<=1
    enter 4
    load  r1, [fp+8]
    loadi r2, 2
    bge   r1, r2, cdeeper
    callb self_node
    addi  r1, r0, 1
    callb node_count
    mov   r2, r0
    mod   r1, r1, r2
    callb migrate         ; to (self+1) mod nodes, at maximum stack depth
    load  r0, [fp+8]
    leave
    ret
cdeeper:
    load  r1, [fp+8]
    store [fp-4], r1
    addi  r1, r1, -1
    push  r1
    call  crec
    addi  sp, sp, 4
    load  r1, [fp-4]
    add   r0, r0, r1
    leave
    ret
`

// Image returns the harness program image: every example program plus
// the chain and negotiation-stress workloads.
func Image() *isa.Image {
	im := progs.NewImage()
	asm.MustAssemble(im, chainSrc)
	asm.MustAssemble(im, negoStressSrc)
	return im
}
