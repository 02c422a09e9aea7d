// Package pm2 is the runtime system: it composes the simulated substrates
// (address spaces, BIP/Madeleine networking, Marcel threads, the isomalloc
// core) into a cluster of PM2 nodes with transparent, preemptive,
// iso-address thread migration — the system the paper describes.
//
// One heavy process runs per node; threads are created locally or remotely
// (LRPC-style), allocate private data with pm2_isomalloc, and migrate
// between nodes, voluntarily or preemptively, with no post-migration pointer
// processing. The package also implements the paper's §2 baseline — stack
// relocation with registered-pointer fixup — for the comparison figures.
package pm2

import (
	"fmt"

	"repro/internal/bip"
	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/vmem"
)

// PackMode selects how slot contents travel during migration.
type PackMode int

// Pack modes.
const (
	// PackUsed ships only the used blocks and live stack (the paper's §6
	// optimization; the default).
	PackUsed PackMode = iota
	// PackWhole ships every byte of every slot.
	PackWhole
)

func (m PackMode) String() string {
	if m == PackWhole {
		return "whole-slot"
	}
	return "used-blocks"
}

// MigrationPolicy selects the migration mechanism.
type MigrationPolicy int

// Policies.
const (
	// PolicyIso is the paper's contribution: same-address reinstallation,
	// no fixups.
	PolicyIso MigrationPolicy = iota
	// PolicyRelocate is the §2 baseline: the stack is re-installed at a
	// different address on the destination and the frame chain plus
	// registered user pointers are patched. Unregistered pointers break.
	PolicyRelocate
)

func (p MigrationPolicy) String() string {
	if p == PolicyRelocate {
		return "relocate"
	}
	return "iso-address"
}

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the cluster size (>= 1).
	Nodes int
	// Dist is the initial slot distribution (default round-robin, as in
	// the paper's experiments).
	Dist core.Distribution
	// CacheCap bounds the per-node mmapped-slot cache (default 8); a
	// negative value disables the cache (ablation A1).
	CacheCap int
	// Quantum is the scheduling quantum in instructions (default 64).
	Quantum int64
	// Model is the cost model (default cost.Default()).
	Model *cost.Model
	// Pack selects the migration pack mode (default PackUsed).
	Pack PackMode
	// Policy selects the migration mechanism (default PolicyIso).
	Policy MigrationPolicy
	// RecordAllocs makes the runtime sample the virtual-time latency of
	// every pm2_isomalloc and malloc call (the Figure 11 measurement).
	RecordAllocs bool
	// PreBuySlots makes every negotiation try to purchase this many
	// extra contiguous slots beyond the request, "in prevision of
	// foreseeable large allocation requests" (§4.4). Falls back to the
	// exact request when no larger run exists.
	PreBuySlots int
	// Gather selects the §4.4 bitmap-gather strategy: GatherSequential
	// (the paper's one-peer-at-a-time default), GatherTree (binomial
	// combining tree) or GatherDelta (one round of concurrent,
	// version-stamped incremental Calls: peers ship only the bitmap
	// words changed since the initiator's cached view).
	Gather GatherMode
	// Arbiter selects the negotiation concurrency scheme:
	// ArbiterGlobal (the paper's node-0 system-wide lock, the default)
	// or ArbiterSharded (per-shard locks spread over the ranks, taken in
	// canonical order for only the shards a planned purchase touches,
	// escalating to every shard rather than giving up). See arbiter.go.
	Arbiter ArbiterMode
	// Placement is the thread-placement policy: Spawn preferences route
	// through it, and an attached load balancer (internal/loadbal)
	// shares its state. Default policy.NewNegotiation(), which never
	// reroutes a spawn — the seed's behavior.
	Placement policy.Policy
	// Convoy enables the zero-copy scatter-gather migration pipeline:
	// iso-address migrations hand their slot spans to the NIC as a
	// gather list (BIP's zero-copy long-message mode — no pack, NIC or
	// install copy is charged, only per-segment DMA setup), and a
	// balancer move of k threads to one destination travels as a single
	// convoy message paying one header and one wire latency instead of
	// k. Default off: every migration uses the paper-faithful copying
	// path, byte- and charge-identical to the seed.
	Convoy bool
	// Faults schedules crash/partition/slow-node events (internal/fault;
	// see fault.go). Default nil: a healthy cluster, with zero fault
	// machinery on any path — every trace stays byte-identical to a
	// build without the fault layer. Requires PolicyIso and Nodes >= 2.
	Faults *fault.Plan
	// HeartbeatMisses is the failure-detection lease: a crashed node is
	// declared dead after missing this many consecutive heartbeat rounds
	// (Cluster.HeartbeatTick, driven by the load balancer's period).
	// Default 2. Only consulted when Faults is set.
	HeartbeatMisses int
	// RPCTimeout is the virtual-time deadline for every protocol exchange
	// that awaits a remote reply (gathers, purchases, locks, remote
	// spawns). Zero (the default) means infinite: no timers, no envelope
	// changes, byte-identical traces. When set, a timed-out wait counts
	// Stats.RPCTimeouts and retries, falls back or fails (rpc.go), and
	// heartbeat detection splits into suspected (routed around,
	// reversible) vs declared dead (evacuated; fault.go). Any negative
	// value selects the cost-model default (DefaultRPCTimeout).
	RPCTimeout simtime.Time
	// Workers is ignored: the simulation kernel is one serial event
	// heap.
	//
	// Deprecated: only the pm2perf ring workload still sets it, and
	// TestFailoverKillOneOf16 pins that it changes no trace. ROADMAP
	// item 11 deletes it together with that setting and those subtests.
	Workers int
}

// AllocSample is one recorded allocation.
type AllocSample struct {
	Node    int
	Size    uint32
	Iso     bool
	Latency simtime.Time
	// OK reports whether the allocation succeeded.
	OK bool
}

// avgMicros averages a latency series in simtime then converts, so
// every consumer reports the same figure.
func avgMicros(ls []simtime.Time) float64 {
	if len(ls) == 0 {
		return 0
	}
	var sum simtime.Time
	for _, l := range ls {
		sum += l
	}
	return (sum / simtime.Time(len(ls))).Micros()
}

// Stats aggregates cluster-wide measurements.
type Stats struct {
	// Migrations counts completed migrations; Latencies holds the
	// end-to-end virtual time of each (freeze to resume).
	Migrations         int
	MigrationLatencies []simtime.Time
	// MigratedBytes totals the slot-image payload bytes installed by
	// iso-address migrations (span data only, not protocol framing).
	MigratedBytes uint64
	// Convoys counts multi-thread convoy messages processed: one per
	// chConvoy message, however many threads it carried (Config.Convoy).
	Convoys int
	// Negotiations counts completed slot negotiations and their
	// latencies (critical-section entry to exit).
	Negotiations         int
	NegotiationLatencies []simtime.Time
	// NegotiationRetries counts declined purchase rounds: the initiator
	// gave secured shares back and re-gathered with fresh bitmaps.
	NegotiationRetries int
	// VersionDeclines is always 0: no arbiter stamps purchases with a
	// bitmap version any more. It stays because the benchmark's
	// pm2.version_declines probe reads it.
	VersionDeclines int
	// NegotiationFailures counts negotiations that gave up — round
	// exhaustion or cluster out of contiguous space. Failed attempts are
	// counted in Negotiations but excluded from NegotiationLatencies, so
	// the latency percentiles describe successful protocol runs only.
	NegotiationFailures int
	// GatherMergedBytes totals the bitmap payload bytes gather
	// participants folded into global views — the merge term the delta
	// gather attacks: a full 7 KB per peer per round under the
	// sequential/tree gathers, only the shipped delta words
	// under GatherDelta.
	GatherMergedBytes uint64
	// Defragmentations counts completed global restructurings (§4.4).
	Defragmentations int
	// Evacuations counts dead-node declarations that ran the evacuation
	// path; EvacuatedThreads totals the threads moved off dead nodes.
	Evacuations      int
	EvacuatedThreads int
	// EvacuationLatencies holds, per evacuated thread, the virtual time
	// from the death declaration to the thread's thaw on its survivor.
	EvacuationLatencies []simtime.Time
	// DetectionLatencies holds, per declared death, the virtual time
	// from the crash instant to the lease expiry that declared it.
	DetectionLatencies []simtime.Time
	// ReclaimedSlots totals the owned-free slots re-dealt from dead
	// ranks to survivors.
	ReclaimedSlots int
	// RPCTimeouts counts request/reply waits abandoned at their deadline
	// (Config.RPCTimeout): each is one timer expiry on the initiator,
	// whether the operation then retried, fell back, or failed.
	RPCTimeouts int
	// Suspicions and Rejoins count the reversible detection transitions
	// (Config.RPCTimeout only): a node marked suspected after missing
	// its lease, and a suspected node cleared after answering again.
	// RejoinLatencies holds, per rejoin, the virtual time the node spent
	// suspected — the routed-around window a healed partition costs.
	Suspicions      int
	Rejoins         int
	RejoinLatencies []simtime.Time
	// CohortSamples holds the per-request SLO records of every spawn
	// tagged through SpawnCohort, in spawn order: arrival,
	// time-to-placement and end-to-end completion per named tenant
	// cohort (see slo.go). Empty unless the serving-workload harness
	// (or another caller) tags its spawns.
	CohortSamples []CohortSample
	// Net mirrors the BIP traffic counters.
	Net bip.Stats
}

// clone deep-copies s, so neither copy aliases the other's slices.
func (s Stats) clone() Stats {
	s.MigrationLatencies = append([]simtime.Time(nil), s.MigrationLatencies...)
	s.NegotiationLatencies = append([]simtime.Time(nil), s.NegotiationLatencies...)
	s.EvacuationLatencies = append([]simtime.Time(nil), s.EvacuationLatencies...)
	s.DetectionLatencies = append([]simtime.Time(nil), s.DetectionLatencies...)
	s.RejoinLatencies = append([]simtime.Time(nil), s.RejoinLatencies...)
	s.CohortSamples = append([]CohortSample(nil), s.CohortSamples...)
	return s
}

// AvgMigrationMicros returns the mean end-to-end migration latency.
func (s Stats) AvgMigrationMicros() float64 { return avgMicros(s.MigrationLatencies) }

// AvgNegotiationMicros returns the mean negotiation latency.
func (s Stats) AvgNegotiationMicros() float64 { return avgMicros(s.NegotiationLatencies) }

// Cluster is a running PM2 configuration: the replicated program image and
// one node per configured rank, in one deterministic virtual-time world.
type Cluster struct {
	cfg   Config
	eng   *simtime.Engine
	im    *isa.Image
	nw    *bip.Network
	nodes []*Node
	log   *trace.Log
	pol   *policy.Engine
	stats Stats
	// shardMap partitions the slot space for the sharded arbiter; whole
	// lists the lock keys covering all of it (section or every shard).
	shardMap core.ShardMap
	whole    []int
	// allocSamples records allocation latencies when cfg.RecordAllocs.
	allocSamples []AllocSample
	// bufPool recycles outgoing Madeleine buffers across all of the
	// cluster's endpoints and the migration packers. Per-cluster (not
	// global) so reuse statistics are deterministic per run.
	bufPool *madeleine.Pool
	// pages is the free list of host pages every node's address space
	// shares, so the pages one node unmaps back the next install
	// anywhere (see hostPageBound).
	pages *vmem.Pages
	// snaps holds the delta gather's shared view snapshots (delta.go),
	// nil under the sequential gather, which caches no views.
	snaps *viewSnaps
	// cohortByTID maps a live tagged thread to its CohortSample index so
	// the exit hook can stamp its completion (see slo.go). Lazily
	// allocated on the first SpawnCohort.
	cohortByTID map[uint32]int
	// Fault-tolerance state (fault.go), all nil/zero on a healthy
	// cluster: the installed fault plan's runtime state, the declared-
	// dead flags and per-node missed-heartbeat counters, and the count
	// of declared deaths (the fast-path gate for the down-skips).
	// suspected marks nodes routed around but not evacuated — the
	// reversible first stage of failure detection, only ever set when
	// Config.RPCTimeout is on (see fault.go).
	faults      *fault.State
	down        []bool
	suspected   []bool
	suspectedAt []simtime.Time
	missedBeats []int
	nDown       int
	nSuspected  int
	// balancer is the attached periodic balancer, when it registered
	// for checkpoint cooperation (SetBalancer); pausedBalancer holds
	// its captured round state between Checkpoint and Resume.
	balancer       BalancerCheckpointer
	pausedBalancer *BalancerCheckpoint
}

// Validate checks the configuration for structural errors. NewChecked
// runs it implicitly; it is exported so front-ends can report a bad
// configuration before building anything.
func (cfg Config) Validate() error {
	if cfg.Nodes <= 0 {
		return fmt.Errorf("pm2: cluster needs at least one node (Nodes = %d)", cfg.Nodes)
	}
	if cfg.PreBuySlots < 0 {
		return fmt.Errorf("pm2: negative pre-buy slot count %d", cfg.PreBuySlots)
	}
	if cfg.HeartbeatMisses < 0 {
		return fmt.Errorf("pm2: negative heartbeat-miss threshold %d", cfg.HeartbeatMisses)
	}
	if cfg.Pack != PackUsed && cfg.Pack != PackWhole {
		return fmt.Errorf("pm2: unknown pack mode %d", cfg.Pack)
	}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		if err := validateFaultPlan(cfg.Faults, cfg); err != nil {
			return err
		}
	}
	return nil
}

// hostPageBound is the most 4 KB host pages a cluster keeps on its free
// list (Cluster.pages). A larger list recycles more of a migration
// burst's pages but holds more heap once the cluster is idle; at 16
// pages, 64 KB, no pm2perf workload ends with a larger live heap than
// it had without the list (EXPERIMENTS.md, "Free slots hold no host
// memory", has the sweep).
const hostPageBound = 16

// New builds a cluster over the (sealed) program image, panicking on an
// invalid configuration. NewChecked is the error-returning variant.
func New(cfg Config, im *isa.Image) *Cluster {
	c, err := NewChecked(cfg, im)
	if err != nil {
		panic(err)
	}
	return c
}

// NewChecked builds a cluster over the (sealed) program image. Any
// configuration that passes Validate builds and runs.
func NewChecked(cfg Config, im *isa.Image) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dist == nil {
		cfg.Dist = core.RoundRobin{}
	}
	if cfg.Model == nil {
		cfg.Model = cost.Default()
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 64
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 8
	} else if cfg.CacheCap < 0 {
		cfg.CacheCap = 0
	}
	if cfg.Placement == nil {
		cfg.Placement = policy.NewNegotiation()
	}
	if cfg.HeartbeatMisses == 0 {
		cfg.HeartbeatMisses = 2
	}
	if cfg.RPCTimeout < 0 {
		cfg.RPCTimeout = DefaultRPCTimeout(cfg.Model)
	}
	im.Seal()
	c := &Cluster{
		cfg: cfg,
		eng: simtime.NewEngine(),
		im:  im,
		log: trace.New(),
	}
	c.pol = policy.NewEngine(cfg.Placement, cfg.Nodes)
	c.shardMap = core.NewShardMap(layout.SlotCount, arbiterShards)
	c.whole = []int{sectionKey}
	if cfg.Arbiter == ArbiterSharded {
		c.whole = c.shardMap.ShardsOfRun(0, layout.SlotCount)
	}
	c.bufPool = madeleine.NewPool()
	c.pages = vmem.NewPages(hostPageBound)
	if cfg.Gather != GatherSequential {
		c.snaps = newViewSnaps(cfg.Nodes)
	}
	c.nw = bip.NewNetwork(c.eng, cfg.Model, cfg.Nodes)
	c.nodes = make([]*Node, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes[i] = newNode(c, i)
	}
	if err := c.InstallFaults(cfg.Faults); err != nil {
		return nil, err
	}
	return c, nil
}

// Placement returns the cluster's policy engine. Attached balancers use
// it so balancing rounds and spawn placement share one policy state.
func (c *Cluster) Placement() *policy.Engine { return c.pol }

// ReportLoads feeds every node's current load into the policy engine as
// a fresh sample. Spawn placement calls it implicitly; balancers call it
// once per round.
func (c *Cluster) ReportLoads() {
	now := c.eng.Now()
	for i, n := range c.nodes {
		c.pol.Report(policy.LoadReport{
			Node:     i,
			Resident: n.sched.Threads(),
			Runnable: n.sched.Runnable(),
			Time:     now,
		})
	}
}

// Engine exposes the discrete-event engine (for time-based test driving).
func (c *Cluster) Engine() *simtime.Engine { return c.eng }

// ConvoyEnabled reports whether the zero-copy convoy migration pipeline
// is on (Config.Convoy). The load balancer consults it to decide whether
// a multi-thread move can travel as one message.
func (c *Cluster) ConvoyEnabled() bool { return c.cfg.Convoy }

// BufferPoolStats reports the cluster-wide Madeleine buffer pool's reuse
// counters (gets served, gets that reused a pooled buffer).
func (c *Cluster) BufferPoolStats() (gets, hits uint64) { return c.bufPool.Stats() }

// Image returns the replicated program image.
func (c *Cluster) Image() *isa.Image { return c.im }

// Trace returns the cluster's output log.
func (c *Cluster) Trace() *trace.Log { return c.log }

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// AllocSamples returns the recorded allocation latencies (empty unless
// Config.RecordAllocs).
func (c *Cluster) AllocSamples() []AllocSample {
	return append([]AllocSample(nil), c.allocSamples...)
}

// Stats returns a copy of the aggregate measurements.
func (c *Cluster) Stats() Stats {
	s := c.stats.clone()
	s.Net = c.nw.Stats()
	return s
}

// At schedules fn on node i's actor at the current virtual time. All
// interactions with node state must go through the actor to keep the cost
// accounting sound.
func (c *Cluster) At(i int, fn func(n *Node)) {
	n := c.nodes[i]
	n.actor.Post(c.eng.Now(), func() { fn(n) })
}

// Spawn schedules the creation of a thread running program prog (by
// name) with argument arg. Node i is the caller's preference; the
// placement policy has the final word (the default negotiation policy
// always honors the preference). If the chosen node has run out of
// slots, one is bought through the negotiation protocol first (§4.4).
func (c *Cluster) Spawn(i int, prog string, arg uint32) {
	c.spawn(i, prog, arg, -1)
}

// spawn is the shared spawn path; sample >= 0 names the CohortSample to
// stamp when the thread is placed (see slo.go).
func (c *Cluster) spawn(i int, prog string, arg uint32, sample int) {
	entry, ok := c.im.EntryOf(prog)
	if !ok {
		panic(fmt.Sprintf("pm2: unknown program %q", prog))
	}
	if policy.Reroutes(c.cfg.Placement) {
		c.ReportLoads()
		i = c.pol.PlaceSpawn(i, c.eng.Now())
	} else if c.nDown+c.nSuspected > 0 {
		// Non-rerouting policies still must not place work on a rank
		// that has been declared dead or is currently suspected.
		i = c.pol.NextLive(i)
	}
	c.At(i, func(n *Node) {
		if th, err := n.sched.Create(entry, arg); err == nil {
			c.noteCohortPlaced(sample, n.id, th.TID, n.actor.Now())
			n.kick()
			return
		}
		n.createNegotiated(entry, arg, func(tid uint32) {
			if tid == 0 {
				panic(fmt.Sprintf("pm2: spawn %s on node %d: cluster out of slots", prog, i))
			}
			c.noteCohortPlaced(sample, n.id, tid, n.actor.Now())
			n.kick()
		})
	})
}

// SpawnSync creates the thread and drives the engine until creation has
// executed, returning the thread id. Intended for test and benchmark
// setup; it pins the thread to node i, bypassing the placement policy.
func (c *Cluster) SpawnSync(i int, prog string, arg uint32) uint32 {
	entry, ok := c.im.EntryOf(prog)
	if !ok {
		panic(fmt.Sprintf("pm2: unknown program %q", prog))
	}
	var tid uint32
	done := false
	c.At(i, func(n *Node) {
		th, err := n.sched.Create(entry, arg)
		if err != nil {
			panic(fmt.Sprintf("pm2: spawn %s on node %d: %v", prog, i, err))
		}
		tid = th.TID
		done = true
		n.kick()
	})
	for !done && c.eng.Step() {
	}
	if !done {
		panic("pm2: SpawnSync never ran")
	}
	return tid
}

// Run drives the simulation until no events remain (all threads exited or
// blocked) or the step limit is reached (0 = unlimited). It returns the
// number of events executed.
func (c *Cluster) Run(limit uint64) uint64 {
	return c.eng.Run(limit)
}

// RunFor drives the simulation for d of virtual time.
func (c *Cluster) RunFor(d simtime.Time) {
	c.eng.RunUntil(c.eng.Now() + d)
}

// Now returns the current virtual time.
func (c *Cluster) Now() simtime.Time { return c.eng.Now() }

// CheckInvariants validates the cluster-wide iso-address discipline:
// no slot is owned-free by two nodes, no iso slot is mapped in two address
// spaces, no cached free slot holds a host page, and every resident
// thread's arena passes its structural checks.
func (c *Cluster) CheckInvariants() error {
	maps := make([]*bitmap.Bitmap, len(c.nodes))
	for i, n := range c.nodes {
		maps[i] = n.slots.Bitmap()
	}
	if i := core.CheckSingleOwnership(maps); i >= 0 {
		return fmt.Errorf("pm2: slot %d owned free by two nodes", i)
	}
	// No iso-area page mapped on two nodes.
	for s := 0; s < layout.SlotCount; s++ {
		base := layout.SlotBase(s)
		mappedOn := -1
		for _, n := range c.nodes {
			if n.space.IsMapped(base, 1) {
				if mappedOn >= 0 {
					return fmt.Errorf("pm2: slot %d mapped on nodes %d and %d", s, mappedOn, n.id)
				}
				mappedOn = n.id
			}
		}
	}
	for _, n := range c.nodes {
		if err := n.slots.CheckCache(); err != nil {
			return fmt.Errorf("node %d: %w", n.id, err)
		}
		if err := n.checkThreads(); err != nil {
			return err
		}
	}
	return c.checkViewSnaps()
}

// checkViewSnaps checks the delta gather's snapshot counts: every view
// points at a live snapshot of its own rank, each snapshot's refs equal
// the views pointing at it, and the table holds only such snapshots.
func (c *Cluster) checkViewSnaps() error {
	if c.snaps == nil {
		return nil
	}
	held := make(map[*viewSnap]int)
	for _, n := range c.nodes {
		for p, s := range n.deltaPeers {
			switch {
			case s == nil:
				continue
			case s.released:
				return fmt.Errorf("pm2: node %d's view of node %d points at a released snapshot", n.id, p)
			case s.rank != p:
				return fmt.Errorf("pm2: node %d's view of node %d points at a snapshot of node %d", n.id, p, s.rank)
			}
			held[s]++
		}
	}
	for _, n := range c.nodes {
		for p, s := range n.deltaPeers {
			if s != nil && s.refs != held[s] {
				return fmt.Errorf("pm2: node %d's snapshot at version %d counts %d references, %d views hold it", p, s.version, s.refs, held[s])
			}
		}
	}
	for p, s := range c.snaps.latest {
		if s != nil && (s.rank != p || held[s] == 0) {
			return fmt.Errorf("pm2: the snapshot table's entry for node %d (node %d at version %d) is held by no view", p, s.rank, s.version)
		}
	}
	return nil
}

// CheckDrained reports an error unless every remote operation ended: no
// node runs or queues a negotiation, holds a lock, has one in its lock
// table (waiters queue only behind a holder, and a declared-dead rank
// keeps no table) or waits on a call record's reply. It is not part of
// CheckInvariants: with RPCTimeout 0 a wait on an unreachable peer
// hangs by design.
func (c *Cluster) CheckDrained() error {
	for i, n := range c.nodes {
		switch g := n.neg; {
		case g != nil:
			return fmt.Errorf("pm2: node %d still runs a negotiation: k=%d round=%d held=%v whole=%v give-backs=%d outstanding=%d",
				i, g.k, g.round, g.held, g.whole, g.giveBacks, g.outstanding)
		case len(n.negWaiting) != 0:
			return fmt.Errorf("pm2: node %d still queues %d negotiation(s)", i, len(n.negWaiting))
		case len(n.locks) != 0 && c.NodeDown(i):
			return fmt.Errorf("pm2: declared-dead rank %d still has %d lock-table entries", i, len(n.locks))
		case len(n.locks) != 0:
			return fmt.Errorf("pm2: manager %d still holds %d lock(s)", i, len(n.locks))
		case len(n.grantedBy) != 0:
			return fmt.Errorf("pm2: node %d still holds %d lock(s)", i, len(n.grantedBy))
		case n.calls != 0:
			return fmt.Errorf("pm2: node %d still waits on %d call(s)", i, n.calls)
		}
	}
	return nil
}
