package perf

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/loadbal"
	ipm2 "repro/internal/pm2"
	"repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/scenario/serve"
	"repro/internal/simtime"
)

// Operation whose latency a workload reports as latency_us_p50/p99.
const (
	opMigration   = "migration"
	opNegotiation = "negotiation"
	opRequest     = "request"
)

// sideLoad tags threads that load the cluster alongside a workload's
// requests — recover's negostress allocations — without being requests:
// they count as attempted work, but not in the request latencies or the
// makespan.
const sideLoad = "side"

// balancePeriod is the balancer cadence of the open-loop workloads.
const balancePeriod = 2 * simtime.Millisecond

// workload is one set of inputs the benchmark runs. listed marks the
// workloads BENCHMARK.json names; paper is a virtual-time check that every
// listed workload also runs (see paperFigures).
type workload struct {
	name   string
	why    string
	listed bool
	plan   func(seed uint64, small bool) (*plan, error)
}

var workloads = []workload{
	{name: "ring", listed: true, plan: ringPlan,
		why: "closed loop: iso-address migration at scale on the parallel kernel, 16,384 hops, a quarter carrying 16 KB; no negotiation, balancing or faults"},
	{name: "alloc", listed: true, plan: allocPlan,
		why: "closed loop: the slot negotiation of paper section 4.4, 2,048 multi-slot isomallocs from 32 initiators queued on the global lock, delta gather; no migration or balancer"},
	{name: "serve", listed: true, plan: servePlan,
		why: "open loop: tenant mix at 12x base rate; placement, balancing and preemptive migration of compute threads; no negotiation"},
	{name: "recover", listed: true, plan: recoverPlan,
		why: "open loop after a checkpoint round trip: a crash, a partition and a slow rank under 8x load; deadlines, detection, evacuation, reclaim"},
	{name: "paper", why: "the §5 protocol (sequential gather, global arbiter, copying path): null ping-pong and negotiation cost against the paper"},
}

// Workloads returns the workload names, listed workloads first.
func Workloads() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan is a workload's inputs for one seed: everything a repetition needs
// to build its cluster, derived once so every repetition runs the same.
type plan struct {
	// inputs is the canonical text of the inputs (configuration, thread
	// arguments, request-stream digest, fault plan) for the digest.
	inputs string
	// chainSums are the sums the chain threads must print, one per thread.
	chainSums []int
	// workers is the number of kernel workers the cluster runs on.
	workers int
	setup   func(sp *spanLog) *instance
}

// instance is one repetition's live cluster.
type instance struct {
	cl    *ipm2.Cluster
	bal   *loadbal.Balancer
	op    string
	nodes int
	// newTime is the host time pm2.New took.
	newTime time.Duration
	// drain runs the workload to quiescence; nil means drainCluster.
	drain func(sp *spanLog)
	// host holds per-repetition host timings taken inside drain.
	host map[string]float64
	// virt holds workload-specific virtual values taken inside drain.
	virt map[string]float64
	// rpcTimeoutsOK lets the deadline layer fire (recover only).
	rpcTimeoutsOK bool
	// check runs the workload's own full checks on the quiescent cluster.
	check func(o *observation) []string
}

// drainCluster runs the cluster until no event is pending. The traced
// pass drains in 1 ms slices of virtual time, one span each; the kernel
// guarantees the same results either way.
func drainCluster(cl *ipm2.Cluster, sp *spanLog) {
	if sp == nil {
		cl.Run(0)
		return
	}
	for cl.Engine().Pending() > 0 {
		sp.begin("slice", cl)
		cl.RunFor(simtime.Millisecond)
		sp.end(cl)
	}
}

// newCluster builds a cluster, timing pm2.New under a span of that name.
func newCluster(cfg ipm2.Config, sp *spanLog) (*ipm2.Cluster, time.Duration) {
	sp.begin("pm2.New", nil)
	start := time.Now()
	cl := ipm2.New(cfg, newImage())
	d := time.Since(start)
	sp.end(cl)
	return cl, d
}

// pick returns k distinct indices of [0, n) drawn from r.
func pick(r *rng.Rand, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}

// Per-workload salts keep the seeded streams of different workloads
// independent.
const (
	saltRing    = 0x72696e67
	saltAlloc   = 0x616c6c6f63
	saltRecover = 0x7265636f766572
	saltServe   = 0x7365727665
)

// ringPlan: 1024 nodes, one thread on each even rank, each making 32 hops
// to (self+1) mod n with a seeded 1900-2100 spin iterations between hops
// (2000 on average, so the total work is the same for every seed); a
// seeded quarter of the threads carry a 16 KB isomalloc'd block.
func ringPlan(seed uint64, small bool) (*plan, error) {
	nodes, threads, hops, blockKB := 1024, 512, 32, 16
	if small {
		nodes, threads, hops = 32, 16, 8
	}
	r := rng.New(seed ^ saltRing)
	args := make([]uint32, threads)
	for i := range args {
		args[i] = uint32(hops | r.Range(1900, 2100)<<8)
	}
	for _, i := range pick(r, threads, threads/4) {
		args[i] |= uint32(blockKB) << 24
	}
	cfg := ipm2.Config{Nodes: nodes, Quantum: 256, Workers: 2}
	return &plan{
		inputs:  fmt.Sprintf("nodes=%d quantum=256 workers=2 args=%v", nodes, args),
		workers: cfg.Workers,
		setup: func(sp *spanLog) *instance {
			cl, d := newCluster(cfg, sp)
			sp.begin("inputs", cl)
			for i, a := range args {
				cl.SpawnCohort(2*i%nodes, "perfring", a, "ring")
			}
			sp.end(cl)
			return &instance{cl: cl, op: opMigration, nodes: nodes, newTime: d,
				check: func(o *observation) []string {
					want := float64(threads * hops)
					if o.failed == 0 && o.values["pm2.migrations"] != want {
						return []string{fmt.Sprintf("ring: %v migrations, want %v", o.values["pm2.migrations"], want)}
					}
					return nil
				}}
		},
	}, nil
}

// allocPlan: 64 nodes under round-robin striping with the delta gather
// and the global arbiter, one thread on every other rank, each making 64
// isomallocs of seeded 130-250 KB sizes — never local, so every one
// negotiates, and the 32 initiators queue on the node-0 lock. (The
// decentralized arbiters give up on a few negotiations per run under this
// load — round exhaustion — so they cannot carry a workload on which no
// operation fails; see the README.)
func allocPlan(seed uint64, small bool) (*plan, error) {
	nodes, threads, count := 64, 32, 64
	if small {
		nodes, threads, count = 16, 8, 16
	}
	r := rng.New(seed ^ saltAlloc)
	args := make([]uint32, threads)
	for i := range args {
		args[i] = uint32(count | r.Intn(1<<24)<<8)
	}
	cfg := ipm2.Config{Nodes: nodes, Gather: ipm2.GatherDelta}
	return &plan{
		inputs:  fmt.Sprintf("nodes=%d gather=delta arbiter=global args=%v", nodes, args),
		workers: 1,
		setup: func(sp *spanLog) *instance {
			cl, d := newCluster(cfg, sp)
			sp.begin("inputs", cl)
			for i, a := range args {
				cl.SpawnCohort(2*i%nodes, "perfalloc", a, "alloc")
			}
			sp.end(cl)
			return &instance{cl: cl, op: opNegotiation, nodes: nodes, newTime: d,
				check: func(o *observation) []string {
					want := float64(threads * count)
					if o.failed == 0 && o.values["pm2.negotiations"] != want {
						return []string{fmt.Sprintf("alloc: %v negotiations, want %v", o.values["pm2.negotiations"], want)}
					}
					return nil
				}}
		},
	}, nil
}

// serveSize is the open-loop configuration of serve and its rate ladder.
type serveSize struct {
	nodes   int
	horizon float64 // µs of arrivals
	rate    float64 // multiple of the DeriveSpec base rate
}

// requests returns the request stream for seed. The traffic itself is
// fixed — the DeriveSpec mix synthesized once from seed 1, so every seed
// offers the same arrivals with the same work sizes — and the seed draws
// which node each request of a spread cohort prefers. The offered load is
// then the same for every seed while the placement problem differs. (With
// fully seeded traffic the heavy-tailed work draws changed the load
// itself: the request p50 moved 12 % and run_s 19 % between seeds.)
func (s serveSize) requests(seed uint64) ([]serve.Request, error) {
	sp := serve.DeriveSpec(1, s.nodes)
	sp.HorizonMicros = s.horizon
	sp.RateScale = s.rate
	reqs, err := sp.Synthesize(s.nodes)
	if err != nil {
		return nil, err
	}
	spread := map[string]bool{}
	for _, c := range sp.Cohorts {
		spread[c.Name] = c.Spread
	}
	r := rng.New(seed ^ saltServe)
	for i := range reqs {
		if spread[reqs[i].Cohort] {
			reqs[i].Pref = r.Intn(s.nodes)
		}
	}
	return reqs, nil
}

func serveSizeFor(small bool) serveSize {
	if small {
		return serveSize{nodes: 16, horizon: 2_000, rate: 12}
	}
	return serveSize{nodes: 64, horizon: 40_000, rate: 12}
}

// chainSums lists the sum each chain request must print.
func chainSums(reqs []serve.Request) []int {
	var out []int
	for _, q := range reqs {
		if q.Prog == "chain" {
			n := int(q.Arg & 0xff)
			out = append(out, n*(n+1)/2)
		}
	}
	return out
}

// scheduleRequests queues every arrival as an engine event at its due
// virtual time, offset by base: latency then counts from when a request
// was due, and the generator is never late.
func scheduleRequests(cl *ipm2.Cluster, base simtime.Time, reqs []serve.Request) {
	for _, q := range reqs {
		cl.Engine().At(base+q.At, func() { cl.SpawnCohort(q.Pref, q.Prog, q.Arg, q.Cohort) })
	}
}

func workStealing() policy.Policy {
	p, err := policy.Parse("work-stealing")
	if err != nil {
		panic(err) // a built-in policy name
	}
	return p
}

// servePlan: 64 nodes, work-stealing placement, a 2 ms balancer, the
// DeriveSpec api/batch/deep tenant mix at 12x the base rate over 40 ms.
func servePlan(seed uint64, small bool) (*plan, error) {
	size := serveSizeFor(small)
	reqs, err := size.requests(seed)
	if err != nil {
		return nil, err
	}
	return &plan{
		inputs:    fmt.Sprintf("nodes=%d policy=work-stealing balance=2ms rate=%v horizon=%vus requests=%016x", size.nodes, size.rate, size.horizon, streamDigest(reqs)),
		chainSums: chainSums(reqs),
		workers:   1,
		setup:     func(sp *spanLog) *instance { return serveSetup(size, reqs, sp) },
	}, nil
}

func serveSetup(size serveSize, reqs []serve.Request, sp *spanLog) *instance {
	cl, d := newCluster(ipm2.Config{Nodes: size.nodes, Placement: workStealing()}, sp)
	sp.begin("inputs", cl)
	horizon := simtime.Time(size.horizon) * simtime.Microsecond
	bal := loadbal.Attach(cl, loadbal.Config{Period: balancePeriod, KeepAliveUntil: horizon + 2*balancePeriod})
	scheduleRequests(cl, 0, reqs)
	sp.end(cl)
	return &instance{cl: cl, bal: bal, op: opRequest, nodes: size.nodes, newTime: d}
}

// serveLadder finds the sustainable rate of the serve mix: it runs the
// workload at 4, 8, 10, 12 and 16 times the base rate and stops at the
// first point that fails. A point passes when every request completes,
// the request p99 is at most 50 ms, and the p99 of the second half of the
// arrivals is at most 1.25 times that of the first half (no growing
// backlog). It returns the last passing rate, 0 if none passes.
func serveLadder(seed uint64, small bool, sp *spanLog) (float64, error) {
	size := serveSizeFor(small)
	best := 0.0
	for _, rate := range []float64{4, 8, 10, 12, 16} {
		size.rate = rate
		reqs, err := size.requests(seed)
		if err != nil {
			return 0, err
		}
		sp.begin(fmt.Sprintf("ladder.x%v", rate), nil)
		inst := serveSetup(size, reqs, nil)
		inst.cl.Run(0)
		ok := sustainable(inst.cl.Stats().CohortSamples)
		sp.end(inst.cl)
		if !ok {
			break
		}
		best = rate
	}
	return best, nil
}

func sustainable(samples []ipm2.CohortSample) bool {
	var first, second []simtime.Time
	for i, s := range samples {
		if !s.Done {
			return false
		}
		if i < len(samples)/2 {
			first = append(first, s.EndToEndLatency())
		} else {
			second = append(second, s.EndToEndLatency())
		}
	}
	all := append(append([]simtime.Time(nil), first...), second...)
	if ipm2.NearestRank(all).P99 > 50_000 {
		return false
	}
	return ipm2.NearestRank(second).P99 <= 1.25*ipm2.NearestRank(first).P99
}

func streamDigest(reqs []serve.Request) uint64 {
	return (&serve.Trace{Requests: reqs}).Digest()
}

// recoverPlan: 64 nodes, work-stealing, a 2 ms balancer and cost-model
// RPC deadlines. 128 untagged background workers run for 2 ms; the
// cluster is checkpointed, encoded, decoded and restored with a seeded
// fault plan that never touches rank 0 (relative to the checkpoint: a
// crash at +1 ms, one rank partitioned from all others over +2..+8 ms,
// one rank slowed 10x over +0.1..+12 ms). The load after the restore is
// the tenant mix at 8x over 60 ms plus 16 negostress 130 KB allocations
// inside the partition window. Chain requests hop to the next live rank
// past the crash victim: a thread migrated into a crashed node is lost by
// design (see README), and the benchmark measures recovery, not that
// hazard.
func recoverPlan(seed uint64, small bool) (*plan, error) {
	load, background, nAllocs, iterLo, iterHi := serveSize{nodes: 64, horizon: 60_000, rate: 8}, 128, 16, 20_000, 40_000
	if small {
		load, background, nAllocs, iterLo, iterHi = serveSize{nodes: 16, horizon: 4_000, rate: 4}, 16, 4, 4_000, 8_000
	}
	nodes := load.nodes
	r := rng.New(seed ^ saltRecover)
	ranks := pick(r, nodes-1, 3)
	for i := range ranks {
		ranks[i]++ // never rank 0
	}
	// pick sorts; draw the roles from a seeded rotation of the three.
	rot := r.Intn(3)
	victim, part, slow := ranks[rot], ranks[(rot+1)%3], ranks[(rot+2)%3]

	iters := make([]uint32, background)
	for i := range iters {
		iters[i] = uint32(r.Range(iterLo, iterHi))
	}
	reqs, err := load.requests(seed)
	if err != nil {
		return nil, err
	}
	for i, q := range reqs {
		if q.Prog != "chain" {
			continue
		}
		target := (q.Pref + 1) % nodes
		if target == victim {
			target = (target + 1) % nodes
		}
		reqs[i].Arg = q.Arg&0xff | uint32(target+1)<<8
	}
	type alloc struct {
		at   simtime.Time
		pref int
	}
	allocs := make([]alloc, nAllocs)
	for i := range allocs {
		pref := r.Intn(nodes)
		for pref == victim || pref == part {
			pref = r.Intn(nodes)
		}
		allocs[i] = alloc{at: simtime.Time(r.Range(2_200, 7_500)) * simtime.Microsecond, pref: pref}
	}
	faults := func(base simtime.Time) *fault.Plan {
		ms := simtime.Millisecond
		p := &fault.Plan{Events: []fault.Event{
			{Kind: fault.Slow, Node: slow, Factor: 10, At: base + ms/10, Until: base + 12*ms},
			{Kind: fault.Crash, Node: victim, At: base + ms},
		}}
		for peer := 0; peer < nodes; peer++ {
			if peer != part {
				p.Events = append(p.Events, fault.Event{Kind: fault.Partition, Node: part, Peer: peer, At: base + 2*ms, Until: base + 8*ms})
			}
		}
		return p
	}

	cfg := ipm2.Config{Nodes: nodes, RPCTimeout: -1}
	horizon := simtime.Time(load.horizon) * simtime.Microsecond
	setup := func(sp *spanLog) *instance {
		cfg := cfg
		cfg.Placement = workStealing()
		cl, d := newCluster(cfg, sp)
		sp.begin("inputs", cl)
		bal := loadbal.Attach(cl, loadbal.Config{Period: balancePeriod, KeepAliveUntil: 2*simtime.Millisecond + horizon + 2*balancePeriod})
		for i, n := range iters {
			cl.Spawn(i%nodes, "worker", n)
		}
		sp.end(cl)
		inst := &instance{cl: cl, bal: bal, op: opRequest, nodes: nodes, newTime: d, rpcTimeoutsOK: true,
			host: map[string]float64{}, virt: map[string]float64{}}
		var image []byte
		inst.drain = func(sp *spanLog) {
			cl := inst.cl
			sp.begin("boot", cl)
			cl.RunFor(2 * simtime.Millisecond)
			sp.end(cl)
			step := func(name string, fn func()) {
				sp.begin(name, inst.cl)
				start := time.Now()
				fn()
				inst.host["pm2ckpt."+strings.TrimPrefix(name, "ckpt.")+"_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
				sp.end(inst.cl)
			}
			var ck *ipm2.Checkpoint
			var err error
			step("ckpt.capture", func() { ck, err = cl.Checkpoint() })
			if err != nil {
				panic(fmt.Sprintf("perf: recover checkpoint: %v", err))
			}
			step("ckpt.encode", func() { image = ck.Encode() })
			step("ckpt.decode", func() { ck, err = ipm2.DecodeCheckpoint(image) })
			if err != nil {
				panic(fmt.Sprintf("perf: recover decode: %v", err))
			}
			step("ckpt.restore", func() {
				rc := cfg
				rc.Placement = workStealing()
				rc.Faults = faults(ck.Now)
				inst.cl, err = ipm2.RestoreCluster(rc, newImage(), ck)
				if err == nil {
					inst.bal = loadbal.AttachFromCheckpoint(inst.cl, loadbal.Config{}, *ck.Balancer)
				}
			})
			if err != nil {
				panic(fmt.Sprintf("perf: recover restore: %v", err))
			}
			inst.virt["pm2ckpt.kb"] = float64(len(image)) / 1024
			cl = inst.cl
			sp.begin("inputs", cl)
			scheduleRequests(cl, ck.Now, reqs)
			for _, a := range allocs {
				cl.Engine().At(ck.Now+a.at, func() { cl.SpawnCohort(a.pref, "negostress", 130*1024, sideLoad) })
			}
			sp.end(cl)
			drainCluster(cl, sp)
		}
		inst.check = func(o *observation) []string {
			return recoverChecks(inst.cl, image, victim, part, slow)
		}
		return inst
	}
	return &plan{
		inputs: fmt.Sprintf("nodes=%d policy=work-stealing balance=2ms rpc=cost-model background=%v faults=%s rate=%v horizon=%vus requests=%016x allocs=%v",
			nodes, iters, faults(0), load.rate, load.horizon, streamDigest(reqs), allocs),
		chainSums: chainSums(reqs),
		workers:   1,
		setup:     setup,
	}, nil
}

// recoverChecks verifies the failure handling: the victim declared dead
// exactly once, the partitioned rank suspected and rejoined without being
// evacuated, the slow rank never suspected, and the checkpoint image
// re-encoding byte for byte with a matching digest.
func recoverChecks(cl *ipm2.Cluster, image []byte, victim, part, slow int) []string {
	var out []string
	lines := cl.Trace().Lines()
	count := func(substr string) int {
		n := 0
		for _, l := range lines {
			if strings.Contains(l, substr) {
				n++
			}
		}
		return n
	}
	if n := count(fmt.Sprintf("[failover] node %d declared dead", victim)); n != 1 || !cl.NodeDown(victim) {
		out = append(out, fmt.Sprintf("recover: victim %d declared dead %d times", victim, n))
	}
	if count(fmt.Sprintf("[suspect] node %d suspected", part)) == 0 || count(fmt.Sprintf("[rejoin] node %d rejoined", part)) == 0 {
		out = append(out, fmt.Sprintf("recover: partitioned rank %d was not suspected and rejoined", part))
	}
	if cl.NodeDown(part) || count(fmt.Sprintf("[failover] node %d declared dead", part)) > 0 {
		out = append(out, fmt.Sprintf("recover: live partitioned rank %d was evacuated", part))
	}
	if count(fmt.Sprintf("[suspect] node %d suspected", slow)) > 0 || cl.NodeDown(slow) {
		out = append(out, fmt.Sprintf("recover: slow rank %d was suspected", slow))
	}
	if st := cl.Stats(); st.Evacuations != 1 {
		out = append(out, fmt.Sprintf("recover: %d evacuations, want 1", st.Evacuations))
	}
	if p := checkpointCheck(image); p != "" {
		out = append(out, "recover: "+p)
	}
	return out
}

// checkpointCheck verifies a pm2ckpt image: it decodes, re-encodes byte
// for byte, and carries the digest of its body.
func checkpointCheck(image []byte) string {
	ck, err := ipm2.DecodeCheckpoint(image)
	switch {
	case err != nil:
		return fmt.Sprintf("checkpoint image: %v", err)
	case !bytes.Equal(ck.Encode(), image):
		return "Encode(Decode(image)) differs from the image"
	case !bytes.HasSuffix(image, []byte(fmt.Sprintf("digest %016x\n", ck.Digest()))):
		return "checkpoint digest does not match its trailer"
	}
	return ""
}

// paperFigures measures the §5 configuration — sequential gather, global
// arbiter, copying path — and checks it against the paper: a null thread
// migrates in under 75 µs, and the negotiation's 2-node cost and per-node
// slope stay within 10 % of 255 µs and 165 µs/node.
func paperFigures() (map[string]float64, []string) {
	var problems []string
	cl := ipm2.New(ipm2.Config{Nodes: 2}, newImage())
	const hops = 100
	cl.SpawnCohort(0, "perfring", hops, "paper")
	cl.Run(0)
	st := cl.Stats()
	if st.Migrations != hops {
		problems = append(problems, fmt.Sprintf("paper: ping-pong made %d migrations, want %d", st.Migrations, hops))
	}
	null := st.AvgMigrationMicros()

	var rows []bench.NegotiationRow
	var twoNode float64
	for _, n := range []int{2, 4, 5, 6, 8, 12, 16} {
		cl := ipm2.New(ipm2.Config{Nodes: n}, newImage())
		cl.SpawnCohort(0, "negostress", 100_000, "paper") // two slots
		cl.Run(0)
		st := cl.Stats()
		if st.Negotiations != 1 || len(st.NegotiationLatencies) != 1 {
			problems = append(problems, fmt.Sprintf("paper: %d-node allocation negotiated %d times", n, st.Negotiations))
			continue
		}
		us := st.NegotiationLatencies[0].Micros()
		if n == 2 {
			twoNode = us
			continue
		}
		rows = append(rows, bench.NegotiationRow{Nodes: n, Micros: us})
	}
	slope := bench.SlopeMicrosPerNode(rows)
	errPct := 100 * max(math.Abs(twoNode/255-1), math.Abs(slope/165-1))
	if null >= 75 {
		problems = append(problems, fmt.Sprintf("paper: null migration %.1f us, the paper measures < 75 us", null))
	}
	if errPct > 10 {
		problems = append(problems, fmt.Sprintf("paper: negotiation %.1f us + %.1f us/node is %.1f %% off 255 + 165/node", twoNode, slope, errPct))
	}
	return map[string]float64{
		"paper.migration_null_us":    null,
		"paper.negotiation_2node_us": twoNode,
		"paper.negotiation_slope_us": slope,
		"paper.err_pct":              errPct,
	}, problems
}
