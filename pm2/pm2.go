// Package pm2 is the public API of the PM2 reproduction: a distributed
// multithreaded runtime with transparent, preemptive, iso-address thread
// migration, after Antoniu, Bougé & Namyst, "An Efficient and Transparent
// Thread Migration Scheme in the PM2 Runtime System" (IPPS/SPDP RTSPP 1999).
//
// The runtime simulates a 1999 PoPC cluster — per-node 32-bit address
// spaces, Myrinet/BIP networking, Marcel user-level threads — in
// deterministic virtual time. Threads are small assembly programs whose
// stacks and isomalloc'd data live at explicit simulated addresses, which is
// what makes "pointers survive migration" a concrete, testable property.
//
// Basic use:
//
//	sys := pm2.NewSystem()
//	sys.RegisterExamples()            // the paper's p1..p4, workers, ...
//	cl := sys.Boot(pm2.Config{Nodes: 2})
//	cl.Spawn(0, "p4", 1000)           // the Figure 7 program
//	cl.Run()
//	fmt.Println(cl.OutputString())    // [node0] Element 0 = 1 ...
//	fmt.Printf("%+v\n", cl.Stats())
//
// # Placement policies
//
// Where threads are created and when they migrate is decided by a
// pluggable placement policy (internal/policy), selected by name through
// Config.Policy and driven by the load balancer that AttachBalancer
// starts:
//
//	cl := sys.Boot(pm2.Config{Nodes: 4, Policy: "work-stealing"})
//	stop := cl.AttachBalancer(2000)   // balance every 2 ms of virtual time
//
// Three policies ship: "negotiation" (the paper's threshold scheme, the
// default), "round-robin" (spread spawns and excess load), and
// "work-stealing" (starving nodes pull work). A policy implements
// PickSpawn / ShouldMigrate / PickTarget / OnLoadReport over sanitized
// load reports; to add one, implement policy.Policy deterministically,
// register it in policy.Parse, and the scenario harness picks it up.
//
// # Negotiation tuning
//
// The §4.4 slot negotiation has two orthogonal knobs. Config.Gather
// picks how the initiator collects peer bitmaps ("sequential", "tree",
// "delta"); Config.Arbiter picks the concurrency
// scheme — "global" (the paper's single node-0 lock) or "sharded"
// (per-shard locks taken in canonical order, so disjoint negotiations
// run in parallel; a negotiation that exhausts its rounds escalates to
// every shard instead of giving up):
//
//	cl := sys.Boot(pm2.Config{Nodes: 16, Gather: "delta", Arbiter: "sharded"})
//
// # Fault tolerance and checkpoint/restore
//
// A fail-stop fault plan (Config.Faults, e.g. "crash:1@3000") crashes
// nodes at scheduled virtual times. Failure detection is lease-based:
// heartbeats ride the load balancer's rounds, and a node that misses
// two consecutive rounds is declared dead. The declaration triggers
// recovery: the dying node's resident threads are frozen and evacuated
// as convoys to the survivors, and the dead rank's iso-address slot
// range is reclaimed — both without violating the single-ownership
// invariant. Stats reports Evacuations, EvacuatedThreads and
// ReclaimedSlots.
//
// Fault plans also schedule live partitions ("partition:1-2@3000..9000",
// store-and-forward healing) and slow links ("slow:1x4@3000..9000").
// With Config.RPCTimeoutMicros set, every protocol exchange awaiting a
// remote reply gets a virtual-time deadline with deterministic retry
// and graceful fallback, and detection becomes suspicion-based: a
// partitioned-but-alive node is routed around but never evacuated, and
// rejoins cleanly when the partition heals.
//
// Orthogonally, CheckpointBytes serializes a quiescent cluster to a
// digest-sealed "pm2ckpt v3" image (with a paused balancer's round
// state when one rides along) and System.Restore boots a new cluster
// from it whose continuation is byte-identical to resuming the original —
// the pm2load -checkpoint/-restore flags from the command line. A
// restore composes with a fresh fault plan whose events lie after the
// checkpoint clock: the restart-and-refail experiment.
//
// # Scenarios
//
// internal/scenario runs deterministic workload generators (burst,
// hotspot, churn, deepchain, negostress, contend, serve, failover,
// partition) under each policy and emits comparable stats plus a
// canonical event trace; golden-trace tests pin the exact decision
// sequence. From the
// command line:
//
//	pm2bench -fig scenarios           # the policy × scenario matrix
//	pm2bench -fig contention          # concurrent initiators × arbiter
//	pm2bench -fig failover            # detection/evacuation/reclaim
//	pm2load -policy round-robin -balance 2000 p4 1000
package pm2

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/loadbal"
	ipm2 "repro/internal/pm2"
	"repro/internal/policy"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// Config selects a cluster configuration. The zero value is a sensible
// 2-node cluster with the paper's defaults (round-robin slot distribution,
// iso-address migration, used-blocks packing, slot cache of 8).
type Config struct {
	// Nodes is the cluster size (default 2).
	Nodes int
	// Distribution is the initial slot distribution: "round-robin"
	// (default), "block-cyclic:K", or "partition".
	Distribution string
	// SlotCache bounds the mmapped-slot cache per node (default 8);
	// negative disables the cache.
	SlotCache int
	// Quantum is the scheduler quantum in instructions (default 64).
	Quantum int
	// WholeSlotPack ships entire slots on migration instead of only the
	// used blocks (the paper's unoptimized variant).
	WholeSlotPack bool
	// RelocationPolicy selects the paper's §2 baseline (stack relocation
	// with registered-pointer fixup) instead of iso-address migration.
	RelocationPolicy bool
	// RecordAllocations samples every pm2_isomalloc/malloc latency.
	RecordAllocations bool
	// PreBuySlots makes every negotiation over-purchase this many extra
	// contiguous slots, anticipating future large requests (§4.4).
	PreBuySlots int
	// Policy selects the thread-placement policy: "negotiation"
	// (default — the paper's scheme: spawns stay where asked, balancing
	// is threshold-driven), "round-robin" (spread spawns and excess
	// load across the cluster), or "work-stealing" (starving nodes pull
	// work from the richest). See ParsePolicy for the accepted aliases.
	// Orthogonal to RelocationPolicy, which picks the migration
	// *mechanism*; this picks the placement *decisions*.
	Policy string
	// Gather selects the §4.4 bitmap-gather strategy used by slot
	// negotiations: "sequential" (default — the paper's one-peer-at-a-
	// time gather), "tree" (binomial combining tree; the initiator
	// receives O(log n) merged maps) or "delta" (one round of concurrent,
	// version-stamped incremental calls: peers ship only the bitmap words
	// changed since the initiator's cached view). See ParseGather for the
	// accepted aliases.
	Gather string
	// Arbiter selects the negotiation concurrency scheme: "global"
	// (default — the paper's system-wide critical section on node 0) or
	// "sharded" (the slot space is partitioned into shards arbitrated
	// by rank shard mod n; a negotiation locks only the shards its
	// planned purchase touches, in canonical order, and escalates to
	// every shard rather than give up). See ParseArbiter for the
	// accepted aliases.
	Arbiter string
	// Convoy enables the zero-copy scatter-gather migration pipeline:
	// migrations hand their slot spans to the NIC as a gather list (no
	// pack/install copies, only per-span DMA setup), and a balancing
	// decision that moves several threads to one destination ships them
	// as a single convoy message — one header, one wire latency for the
	// whole batch. Default off: the paper-faithful copying path.
	Convoy bool
	// Faults installs a fail-stop fault plan (internal/fault spec
	// syntax: ';'-separated events, e.g. "crash:1@3000" crashes node 1
	// at 3000 µs of virtual time). A crashed node's resident threads are
	// evacuated to the survivors and its slot range reclaimed once the
	// heartbeat lease expires — see the package comment. Default "":
	// no faults, and the failure-detection path is entirely inert.
	Faults string
	// RPCTimeoutMicros arms the partial-failure deadline layer: every
	// protocol exchange awaiting a remote reply — gather requests,
	// purchase and lock traffic, the remote-spawn call — is abandoned
	// after this many microseconds of virtual time, counted in
	// Stats.RPCTimeouts, and retried with deterministic capped backoff
	// or failed gracefully. It also splits heartbeat failure detection
	// into two stages: a silent node is first *suspected* (routed
	// around, reversibly — a healed partition rejoins it) and only
	// declared dead, evacuated and reclaimed after a confirmation
	// window. 0 (the default) disables the layer entirely — no timers,
	// traces byte-identical; negative derives the deadline from the
	// cost model (about two bitmap-sized round trips).
	RPCTimeoutMicros int64
}

// Validate reports whether Boot accepts the configuration: every name
// parses, the fault plan parses and fits the cluster, and the runtime's
// structural checks pass.
func (c Config) Validate() error {
	_, err := c.toInternal()
	return err
}

// toInternal translates and validates the configuration; it is the one
// validation path behind Validate, Boot and BindFlags.
func (c Config) toInternal() (ipm2.Config, error) {
	cfg := ipm2.Config{
		Nodes:        c.Nodes,
		Quantum:      int64(c.Quantum),
		CacheCap:     c.SlotCache,
		RecordAllocs: c.RecordAllocations,
		PreBuySlots:  c.PreBuySlots,
		Convoy:       c.Convoy,
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if c.WholeSlotPack {
		cfg.Pack = ipm2.PackWhole
	}
	if c.RelocationPolicy {
		cfg.Policy = ipm2.PolicyRelocate
	}
	if c.RPCTimeoutMicros > 0 {
		cfg.RPCTimeout = simtime.Time(c.RPCTimeoutMicros) * simtime.Microsecond
	} else if c.RPCTimeoutMicros < 0 {
		cfg.RPCTimeout = -1 // cost-model default, resolved by NewChecked
	}
	var err error
	if c.Faults != "" {
		if cfg.Faults, err = fault.Parse(c.Faults); err != nil {
			return cfg, err
		}
	}
	if cfg.Dist, err = ParseDistribution(c.Distribution); err != nil {
		return cfg, err
	}
	if cfg.Placement, err = policy.Parse(c.Policy); err != nil {
		return cfg, err
	}
	if cfg.Gather, err = ipm2.ParseGatherMode(c.Gather); err != nil {
		return cfg, err
	}
	if cfg.Arbiter, err = ipm2.ParseArbiterMode(c.Arbiter); err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

// BindFlags registers the cluster flags every command-line front end
// shares on fs: -nodes, -dist, -policy, -gather, -arbiter, -fault,
// -rpc-timeout ("auto", a µs count, or empty for off) and -convoy,
// each defaulting to the value in defaults. Call the returned function
// after fs.Parse: it assembles the Config and validates it as Boot
// would, so a bad value is an error, not a panic. The policy, gather and arbiter names come back canonical.
func BindFlags(fs *flag.FlagSet, defaults Config) func() (Config, error) {
	cfg := defaults
	fs.IntVar(&cfg.Nodes, "nodes", defaults.Nodes, "cluster size")
	fs.StringVar(&cfg.Distribution, "dist", defaults.Distribution, "slot distribution: round-robin | block-cyclic:K | partition")
	fs.StringVar(&cfg.Policy, "policy", defaults.Policy, "placement policy: "+strings.Join(PolicyNames(), " | "))
	fs.StringVar(&cfg.Gather, "gather", defaults.Gather, "negotiation bitmap-gather strategy: "+strings.Join(GatherNames(), " | "))
	fs.StringVar(&cfg.Arbiter, "arbiter", defaults.Arbiter, "negotiation arbiter: "+strings.Join(ArbiterNames(), " | "))
	fs.StringVar(&cfg.Faults, "fault", defaults.Faults, `fault plan, e.g. "crash:1@3000", "partition:1-0@3000..9000;slow:2x4@0..5000"`)
	rpcDefault := ""
	if defaults.RPCTimeoutMicros < 0 {
		rpcDefault = "auto"
	} else if defaults.RPCTimeoutMicros > 0 {
		rpcDefault = strconv.FormatInt(defaults.RPCTimeoutMicros, 10)
	}
	rpc := fs.String("rpc-timeout", rpcDefault, `protocol deadline: "auto" = derive from the cost model, an integer = µs of virtual time, "" = off`)
	fs.BoolVar(&cfg.Convoy, "convoy", defaults.Convoy, "zero-copy scatter-gather migration pipeline with thread convoys")
	return func() (Config, error) {
		c := cfg
		switch *rpc {
		case "":
			c.RPCTimeoutMicros = 0
		case "auto":
			c.RPCTimeoutMicros = -1
		default:
			v, err := strconv.ParseInt(*rpc, 10, 64)
			if err != nil || v <= 0 {
				return Config{}, fmt.Errorf("pm2: bad -rpc-timeout %q (want \"auto\" or a positive µs count)", *rpc)
			}
			c.RPCTimeoutMicros = v
		}
		if c.Nodes < 1 {
			return Config{}, fmt.Errorf("pm2: bad -nodes %d (a cluster needs at least one node)", c.Nodes)
		}
		in, err := c.toInternal()
		if err != nil {
			return Config{}, err
		}
		c.Policy, c.Gather, c.Arbiter = in.Placement.Name(), in.Gather.String(), in.Arbiter.String()
		return c, nil
	}
}

// ParseArbiter validates a negotiation-arbiter name and returns its
// canonical form. Accepted: "global" ("lock", "") and "sharded"
// ("shard").
func ParseArbiter(s string) (string, error) {
	a, err := ipm2.ParseArbiterMode(s)
	if err != nil {
		return "", err
	}
	return a.String(), nil
}

// ArbiterNames lists the canonical negotiation-arbiter names.
func ArbiterNames() []string { return ipm2.ArbiterModeNames() }

// ParseGather validates a gather-strategy name and returns its canonical
// form. Accepted: "sequential" ("seq", ""), "tree", "delta"
// ("incremental").
func ParseGather(s string) (string, error) {
	g, err := ipm2.ParseGatherMode(s)
	if err != nil {
		return "", err
	}
	return g.String(), nil
}

// GatherNames lists the canonical gather-strategy names.
func GatherNames() []string { return ipm2.GatherModeNames() }

// ParsePolicy validates a placement-policy name and returns its
// canonical form. Accepted: "negotiation" ("threshold", ""),
// "round-robin" ("rr", "spread"), "work-stealing" ("steal", "ws").
func ParsePolicy(s string) (string, error) {
	p, err := policy.Parse(s)
	if err != nil {
		return "", err
	}
	return p.Name(), nil
}

// PolicyNames lists the canonical placement-policy names.
func PolicyNames() []string { return policy.Names() }

// ParseDistribution resolves a distribution name (core.ParseDistribution).
// Empty and "rr" mean round-robin.
func ParseDistribution(s string) (core.Distribution, error) {
	if s == "" || s == "rr" {
		return core.RoundRobin{}, nil
	}
	return core.ParseDistribution(s)
}

// System holds the replicated SPMD program image under construction.
// Register every program before booting a cluster from it.
type System struct {
	im *isa.Image
}

// NewSystem returns a System with an empty program image.
func NewSystem() *System { return &System{im: isa.NewImage()} }

// Register assembles a program (see internal/asm for the syntax) into the
// image.
func (s *System) Register(src string) error {
	_, err := asm.Assemble(s.im, src)
	return err
}

// MustRegister is Register panicking on error.
func (s *System) MustRegister(src string) {
	if err := s.Register(src); err != nil {
		panic(err)
	}
}

// RegisterExamples loads the paper's example programs (p1, p2, p2r, p3, p4,
// p4m) and the workload programs (worker, pingpong, heapjunk, allocone).
func (s *System) RegisterExamples() { progs.All(s.im) }

// Boot builds a cluster over the image; the image is sealed and must not be
// modified afterwards (it is the same binary on every node). Boot panics
// on a configuration Validate rejects.
func (s *System) Boot(cfg Config) *Cluster {
	in, err := cfg.toInternal()
	if err != nil {
		panic(err)
	}
	return &Cluster{inner: ipm2.New(in, s.im)}
}

// Cluster is a running PM2 configuration in deterministic virtual time.
type Cluster struct {
	inner *ipm2.Cluster
}

// Internal exposes the underlying runtime cluster for advanced scenarios
// (benchmarks, load balancing modules, invariant checks).
func (c *Cluster) Internal() *ipm2.Cluster { return c.inner }

// Spawn creates a thread on node running the named program with one
// argument (delivered in r1).
func (c *Cluster) Spawn(node int, program string, arg uint32) {
	c.inner.Spawn(node, program, arg)
}

// SpawnWait creates the thread and returns its id once creation executed.
func (c *Cluster) SpawnWait(node int, program string, arg uint32) uint32 {
	return c.inner.SpawnSync(node, program, arg)
}

// Run drives the cluster until every thread has exited or blocked forever.
func (c *Cluster) Run() { c.inner.Run(0) }

// RunForMicros advances virtual time by the given number of microseconds.
func (c *Cluster) RunForMicros(us int64) {
	c.inner.RunFor(simtime.Time(us) * simtime.Microsecond)
}

// NowMicros returns the current virtual time in microseconds.
func (c *Cluster) NowMicros() float64 { return c.inner.Now().Micros() }

// Output returns the pm2_printf trace lines emitted so far.
func (c *Cluster) Output() []string { return c.inner.Trace().Lines() }

// OutputString returns the whole trace as one string.
func (c *Cluster) OutputString() string { return c.inner.Trace().String() }

// MigrateThread preemptively migrates thread tid (currently on node src) to
// node dest at its next quantum boundary. It reports whether the thread was
// found on src.
func (c *Cluster) MigrateThread(src int, tid uint32, dest int) bool {
	found := false
	done := false
	c.inner.At(src, func(n *ipm2.Node) {
		found = n.Scheduler().RequestMigration(tid, dest)
		done = true
	})
	for !done && c.inner.Engine().Step() {
	}
	return found
}

// ThreadsOn returns the number of threads resident on node.
func (c *Cluster) ThreadsOn(node int) int {
	return c.inner.Node(node).Scheduler().Threads()
}

// Locate returns the node currently hosting thread tid, or -1.
func (c *Cluster) Locate(tid uint32) int {
	for i := 0; i < c.inner.Nodes(); i++ {
		if _, ok := c.inner.Node(i).Scheduler().Lookup(tid); ok {
			return i
		}
	}
	return -1
}

// AttachBalancer starts the generic external load balancer (§2): every
// periodMicros of virtual time it samples node loads into the cluster's
// policy engine and executes the placement policy's migration decisions.
// The returned stop function disables further rounds.
func (c *Cluster) AttachBalancer(periodMicros int64) (stop func()) {
	b := loadbal.Attach(c.inner, loadbal.Config{
		Period: simtime.Time(periodMicros) * simtime.Microsecond,
	})
	return b.Stop
}

// CheckpointBytes drives the cluster to a quiescent instant — every
// runnable thread parked, every in-flight message landed — and returns
// its complete state as a digest-sealed "pm2ckpt v3" image, with the
// round state of an attached balancer when one is pending. The cluster
// is left parked: call Resume to continue it in place, or feed the
// bytes to System.Restore (here or in another process) for a
// continuation byte-identical to resuming the original.
// Refused, with an error: clusters with a fault plan installed, the
// relocation baseline, and clusters whose threads used the
// non-migratable pm2_malloc heap.
func (c *Cluster) CheckpointBytes() ([]byte, error) {
	ck, err := c.inner.Checkpoint()
	if err != nil {
		return nil, err
	}
	return ck.Encode(), nil
}

// Resume continues a cluster parked by CheckpointBytes in place.
func (c *Cluster) Resume() { c.inner.Resume() }

// Restore boots a cluster from a pm2ckpt image produced by
// CheckpointBytes. The structural configuration — node count, slot
// distribution, gather strategy, arbiter, convoy pipeline, pack mode,
// heartbeat lease — is taken from the checkpoint itself, so the
// operator re-specifies nothing; the System only has to carry the same
// program image the capture ran. The restored cluster's continuation is
// byte-identical to resuming the original in place.
func (s *System) Restore(data []byte) (*Cluster, error) {
	ck, err := ipm2.DecodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	cfg, err := ck.Config()
	if err != nil {
		return nil, err
	}
	inner, err := ipm2.RestoreCluster(cfg, s.im, ck)
	if err != nil {
		return nil, err
	}
	// Reattach the balancer the capture paused, so the restored
	// continuation keeps the cadence (and the Rounds/Moves accounting)
	// the original had.
	if ck.Balancer != nil {
		loadbal.AttachFromCheckpoint(inner, loadbal.Config{}, *ck.Balancer)
	}
	return &Cluster{inner: inner}, nil
}

// Defragment triggers the paper's §4.4 global restructuring: every node
// surrenders its free slots to node 0, which redistributes them as per-node
// contiguous ranges, maximizing the contiguity available to multi-slot
// allocations. Runs synchronously in virtual time.
func (c *Cluster) Defragment() { c.inner.DefragmentSync(0) }

// Validate checks the cluster-wide iso-address invariants (single slot
// ownership, no double mapping, allocator structural integrity).
func (c *Cluster) Validate() error { return c.inner.CheckInvariants() }

// Stats summarizes the run.
type Stats struct {
	// VirtualMicros is the virtual time consumed so far.
	VirtualMicros float64
	// Migrations and the average/worst end-to-end migration latency.
	Migrations         int
	AvgMigrationMicros float64
	MaxMigrationMicros float64
	// MigratedBytes totals the slot-image payload bytes iso-address
	// migrations installed; Convoys counts multi-thread convoy messages
	// (Config.Convoy).
	MigratedBytes uint64
	Convoys       int
	// Negotiations and the average latency of the slot negotiation
	// protocol.
	Negotiations         int
	AvgNegotiationMicros float64
	// Defragmentations counts §4.4 global restructurings.
	Defragmentations int
	// Failure recovery (Config.Faults): dead-node declarations that ran
	// the evacuation path, the threads moved off dead nodes, and the
	// owned-free slots re-dealt from dead ranks to the survivors.
	Evacuations      int
	EvacuatedThreads int
	ReclaimedSlots   int
	// RPCTimeouts counts protocol waits abandoned at their deadline
	// (Config.RPCTimeoutMicros), whether the operation then retried,
	// fell back or failed.
	RPCTimeouts int
	// Suspicions and Rejoins count the reversible detection transitions
	// under the partial-failure model: nodes routed around after missing
	// their lease, and suspected nodes cleared after answering again.
	Suspicions int
	Rejoins    int
	// Network traffic.
	NetworkMessages uint64
	NetworkBytes    uint64
}

// Stats returns the aggregate measurements so far.
func (c *Cluster) Stats() Stats {
	st := c.inner.Stats()
	out := Stats{
		VirtualMicros:    c.inner.Now().Micros(),
		Migrations:       st.Migrations,
		MigratedBytes:    st.MigratedBytes,
		Convoys:          st.Convoys,
		Negotiations:     st.Negotiations,
		Defragmentations: st.Defragmentations,
		Evacuations:      st.Evacuations,
		EvacuatedThreads: st.EvacuatedThreads,
		ReclaimedSlots:   st.ReclaimedSlots,
		RPCTimeouts:      st.RPCTimeouts,
		Suspicions:       st.Suspicions,
		Rejoins:          st.Rejoins,
		NetworkMessages:  st.Net.Messages,
		NetworkBytes:     st.Net.Bytes,
	}
	out.AvgMigrationMicros = st.AvgMigrationMicros()
	out.AvgNegotiationMicros = st.AvgNegotiationMicros()
	var max simtime.Time
	for _, l := range st.MigrationLatencies {
		if l > max {
			max = l
		}
	}
	out.MaxMigrationMicros = max.Micros()
	return out
}

// AllocationSample is one recorded allocation (Config.RecordAllocations).
type AllocationSample struct {
	Node          int
	Size          uint32
	Isomalloc     bool
	LatencyMicros float64
	OK            bool
}

// Allocations returns the recorded allocation samples.
func (c *Cluster) Allocations() []AllocationSample {
	in := c.inner.AllocSamples()
	out := make([]AllocationSample, len(in))
	for i, s := range in {
		out[i] = AllocationSample{
			Node:          s.Node,
			Size:          s.Size,
			Isomalloc:     s.Iso,
			LatencyMicros: s.Latency.Micros(),
			OK:            s.OK,
		}
	}
	return out
}
