// Package bench is the shared experiment harness: one function per figure,
// table or in-text measurement of the paper's evaluation (§5), plus the
// ablations from DESIGN.md. Both cmd/pm2bench and the root benchmark suite
// call into it, so the printed tables and the testing.B metrics come from
// the same code paths.
//
// All measurements are in virtual microseconds from the calibrated cost
// model; runs are deterministic.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/pm2"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// spawnWithRegs creates a thread on node 0 running prog with r1..r3 preset,
// before any instruction executes.
func spawnWithRegs(c *pm2.Cluster, prog string, r1, r2, r3 uint32) {
	entry, ok := c.Image().EntryOf(prog)
	if !ok {
		panic("bench: unknown program " + prog)
	}
	c.At(0, func(n *pm2.Node) {
		th, err := n.Scheduler().Create(entry, r1)
		if err != nil {
			panic(err)
		}
		th.Regs.R[1] = r1
		th.Regs.R[2] = r2
		th.Regs.R[3] = r3
		// kick happens through the public surface: posting again is
		// harmless, Create left the thread queued.
		n.Kick()
	})
}

// Fig11Row is one point of the Figure 11 sweep.
type Fig11Row struct {
	Size         uint32
	MallocMicros float64
	IsoMicros    float64
	Negotiated   bool // whether the isomalloc point required negotiation
}

// Fig11 measures the average allocation time of malloc and pm2_isomalloc
// for each size, on a cluster of the given node count with round-robin
// slots (the paper's configuration). Every trial runs on a fresh cluster so
// multi-slot isomalloc requests always face the round-robin worst case,
// exactly as in the paper's experiment.
func Fig11(sizes []uint32, trials, nodes int) []Fig11Row {
	rows := make([]Fig11Row, 0, len(sizes))
	for _, size := range sizes {
		row := Fig11Row{Size: size}
		for _, iso := range []bool{false, true} {
			var sum float64
			for trial := 0; trial < trials; trial++ {
				c := pm2.New(pm2.Config{
					Nodes:        nodes,
					Dist:         core.RoundRobin{},
					RecordAllocs: true,
				}, progs.NewImage())
				which := uint32(1) // malloc
				if iso {
					which = 0
				}
				spawnWithRegs(c, "allocone", size, which, 0)
				c.Run(0)
				samples := c.AllocSamples()
				if len(samples) != 1 || !samples[0].OK {
					panic(fmt.Sprintf("bench: fig11 size %d iso=%v: samples %+v", size, iso, samples))
				}
				sum += samples[0].Latency.Micros()
				if iso && c.Stats().Negotiations > 0 {
					row.Negotiated = true
				}
			}
			avg := sum / float64(trials)
			if iso {
				row.IsoMicros = avg
			} else {
				row.MallocMicros = avg
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// MigrationResult summarizes a ping-pong run.
type MigrationResult struct {
	Hops        int
	AvgMicros   float64
	WorstMicros float64
	BytesOnWire uint64
}

// MigrationPingPong reproduces the §5 measurement: a thread with no static
// data bounces between two nodes; the result is the average end-to-end
// migration latency (freeze → resume).
func MigrationPingPong(hops int, cfg pm2.Config) MigrationResult {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	c := pm2.New(cfg, progs.NewImage())
	c.Spawn(0, "pingpong", uint32(hops))
	c.Run(0)
	return migrationResult(c, hops)
}

// MigrationWithPayload is the ablation: the thread carries payload bytes of
// isomalloc'd data on every hop.
func MigrationWithPayload(hops int, payload uint32, cfg pm2.Config) MigrationResult {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	c := pm2.New(cfg, progs.NewImage())
	spawnWithRegs(c, "pingpongdata", uint32(hops), payload, 0)
	c.Run(0)
	return migrationResult(c, hops)
}

// convoyHoldSrc is the convoy workload: the thread isomallocs r1 bytes of
// private payload, writes a marker through the pointer, then yields on its
// birth node until a (convoy) migration lands it elsewhere — where it
// reads the marker back, frees the block and exits. The yield loop keeps
// the thread runnable (so it can be frozen into a convoy at any
// scheduling boundary) with a time-invariant stack image.
const convoyHoldSrc = `
.program convoyhold
.string fmt_done "convoy %u done on node %d\n"
main:
    enter 8
    store [fp-4], r1        ; payload size
    loadi r2, 0
    store [fp-8], r2        ; ptr = NULL
    beq   r1, r2, wait      ; no payload requested
    callb isomalloc
    store [fp-8], r0
    loadi r3, 4051
    store [r0], r3          ; marker through the iso pointer
wait:
    callb self_node
    loadi r2, 0
    bne   r0, r2, away      ; migrated off node 0: finish up
    callb yield
    br    wait
away:
    load  r1, [fp-8]
    loadi r2, 0
    beq   r1, r2, fin
    load  r3, [r1]          ; pointer integrity after the convoy
    callb isofree
fin:
    callb self_node
    mov   r3, r0
    load  r2, [fp-4]
    loadi r1, fmt_done
    callb printf
    leave
    halt
`

// ConvoyRow is one point of the convoy batching measurement: k threads,
// each carrying Payload bytes of isomalloc'd data, moved from node 0 to
// node 1 in one balancing decision — as k individual messages (the legacy
// path) versus one zero-copy convoy message.
type ConvoyRow struct {
	Payload uint32
	K       int
	// PerThreadLegacyMicros / PerThreadConvoyMicros is the makespan of
	// the whole batch (migration request to last thread resumed)
	// divided by k.
	PerThreadLegacyMicros float64
	PerThreadConvoyMicros float64
	// LegacyMessages / ConvoyMessages count the migration messages the
	// batch put on the wire (k versus 1).
	LegacyMessages uint64
	ConvoyMessages uint64
	// LegacyBytesPerThread / ConvoyBytesPerThread is the wire traffic of
	// the batch divided by k.
	LegacyBytesPerThread uint64
	ConvoyBytesPerThread uint64
}

// MigrationConvoy measures the convoy batching win: for each k it stages
// k convoyhold threads on node 0 of a two-node cluster (partitioned slot
// distribution, so staging never negotiates), waits for their payload
// allocations, then moves all of them to node 1 — per-thread messages
// with Config.Convoy off, one convoy with it on — and reports the
// per-thread makespan and wire cost of each scheme.
func MigrationConvoy(payload uint32, ks []int) []ConvoyRow {
	rows := make([]ConvoyRow, 0, len(ks))
	for _, k := range ks {
		row := ConvoyRow{Payload: payload, K: k}
		for _, convoy := range []bool{false, true} {
			perThread, msgs, bytes := convoyBatchRun(payload, k, convoy)
			if convoy {
				row.PerThreadConvoyMicros = perThread
				row.ConvoyMessages = msgs
				row.ConvoyBytesPerThread = bytes / uint64(k)
			} else {
				row.PerThreadLegacyMicros = perThread
				row.LegacyMessages = msgs
				row.LegacyBytesPerThread = bytes / uint64(k)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// convoyBatchRun stages and moves one batch, returning the per-thread
// makespan in microseconds plus the migration-phase message and byte
// counts.
func convoyBatchRun(payload uint32, k int, convoy bool) (perThreadMicros float64, msgs, bytes uint64) {
	im := progs.NewImage()
	asm.MustAssemble(im, convoyHoldSrc)
	c := pm2.New(pm2.Config{
		Nodes:        2,
		Dist:         core.Partition{},
		Convoy:       convoy,
		RecordAllocs: true,
	}, im)
	for i := 0; i < k; i++ {
		spawnWithRegs(c, "convoyhold", payload, 0, 0)
	}
	// Drive until every thread has its payload in place and is parked in
	// the yield loop (a zero payload allocates nothing — the snapshot
	// wait below is then the only staging barrier).
	for payload > 0 && len(c.AllocSamples()) < k {
		if !c.Engine().Step() {
			panic("bench: convoy staging drained early")
		}
	}
	var tids []uint32
	c.At(0, func(n *pm2.Node) {
		for _, t := range n.Scheduler().Snapshot() {
			tids = append(tids, t.TID)
		}
	})
	for len(tids) < k {
		if !c.Engine().Step() {
			panic("bench: convoy staging drained early")
		}
	}

	pre := c.Stats()
	t0 := c.Now()
	c.At(0, func(n *pm2.Node) {
		if convoy {
			if moved := n.MigrateBatch(tids, 1); moved != k {
				panic(fmt.Sprintf("bench: convoy moved %d of %d threads", moved, k))
			}
			return
		}
		for _, tid := range tids {
			if !n.Scheduler().RequestMigration(tid, 1) {
				panic("bench: thread vanished before migration")
			}
		}
	})
	for c.Stats().Migrations < k {
		if !c.Engine().Step() {
			panic("bench: batch never completed")
		}
	}
	makespan := c.Now() - t0
	c.Run(0) // drain: threads verify their marker and exit on node 1
	st := c.Stats()
	if st.Migrations != k {
		panic(fmt.Sprintf("bench: %d migrations, want %d", st.Migrations, k))
	}
	return (makespan / simtime.Time(k)).Micros(), st.Net.Messages - pre.Net.Messages, st.Net.Bytes - pre.Net.Bytes
}

// MigrationReport is the gated side of the migration figure: the
// ping-pong µs/hop at PayloadBytes under the copying and the zero-copy
// pipeline, and the convoy rows at that payload.
type MigrationReport struct {
	PayloadBytes         uint32
	LegacyMicrosPerHop   float64
	ZeroCopyMicrosPerHop float64
	Convoy               []ConvoyRow
}

// Rows states the migration figure's gates: the ping-pong µs/hop and
// the convoy per-thread µs and wire bytes are ceilings, and the payload
// they were measured at is exact, so a baseline is never held against a
// run at another size.
func (r MigrationReport) Rows() []Row {
	rows := []Row{
		{"migration", "payload", float64(r.PayloadBytes), "B", Exact},
		{"migration", "legacy_pingpong", r.LegacyMicrosPerHop, "us/hop", Ceiling},
		{"migration", "zerocopy_pingpong", r.ZeroCopyMicrosPerHop, "us/hop", Ceiling},
	}
	for _, c := range r.Convoy {
		k := fmt.Sprintf("convoy_k%d.", c.K)
		rows = append(rows,
			Row{"migration", k + "per_thread_legacy", c.PerThreadLegacyMicros, "us", Info},
			Row{"migration", k + "per_thread", c.PerThreadConvoyMicros, "us", Ceiling},
			Row{"migration", k + "wire", float64(c.ConvoyBytesPerThread), "B/thread", Ceiling})
	}
	return rows
}

// RelocationPingPong measures the §2 baseline with regPtrs registered user
// pointers: every hop pays the relocation fixup pass.
func RelocationPingPong(hops, regPtrs int) MigrationResult {
	c := pm2.New(pm2.Config{Nodes: 2, Policy: pm2.PolicyRelocate}, progs.NewImage())
	spawnWithRegs(c, "pingpongreg", uint32(hops), uint32(regPtrs), 0)
	c.Run(0)
	return migrationResult(c, hops)
}

func migrationResult(c *pm2.Cluster, hops int) MigrationResult {
	st := c.Stats()
	if st.Migrations != hops {
		panic(fmt.Sprintf("bench: %d migrations, want %d", st.Migrations, hops))
	}
	var sum, worst simtime.Time
	for _, l := range st.MigrationLatencies {
		sum += l
		if l > worst {
			worst = l
		}
	}
	return MigrationResult{
		Hops:        hops,
		AvgMicros:   (sum / simtime.Time(hops)).Micros(),
		WorstMicros: worst.Micros(),
		BytesOnWire: st.Net.Bytes,
	}
}

// NegotiationRow is one point of the negotiation scaling measurement.
type NegotiationRow struct {
	Nodes  int
	Micros float64
	// MergedBytes is the bitmap payload the gather participants folded
	// into global views during the measured negotiation(s) — 7 KB per
	// peer per round for the full-map gathers, delta words only for the
	// incremental gather.
	MergedBytes uint64
}

// NegotiationScaling measures the negotiation protocol cost for each
// cluster size: one multi-slot allocation on node 0 under round-robin slots
// (which guarantees the negotiation, §5), with the paper's sequential
// bitmap gather.
func NegotiationScaling(nodeCounts []int) []NegotiationRow {
	return NegotiationScalingGather(nodeCounts, pm2.GatherSequential)
}

// NegotiationScalingGather is NegotiationScaling under a chosen §4.4
// gather strategy, for the per-strategy slope comparison.
func NegotiationScalingGather(nodeCounts []int, gather pm2.GatherMode) []NegotiationRow {
	rows := make([]NegotiationRow, 0, len(nodeCounts))
	for _, p := range nodeCounts {
		c := pm2.New(pm2.Config{Nodes: p, Gather: gather}, progs.NewImage())
		spawnWithRegs(c, "allocone", 100_000, 0, 0)
		c.Run(0)
		st := c.Stats()
		if st.Negotiations != 1 {
			panic(fmt.Sprintf("bench: %d-node run negotiated %d times", p, st.Negotiations))
		}
		rows = append(rows, NegotiationRow{
			Nodes:       p,
			Micros:      st.NegotiationLatencies[0].Micros(),
			MergedBytes: st.GatherMergedBytes,
		})
	}
	return rows
}

// NegotiationScalingGatherWarm measures the steady-state negotiation
// cost: two successive multi-slot allocations by the same thread (the
// remedy workload with two iterations), reporting the latency of the
// second negotiation and the bytes merged across both. Under the
// full-map gathers both negotiations cost the same; under the delta
// gather the first pays full maps (first contact) and the second ships
// only the words the first round dirtied — the per-node slope of this
// measurement is the delta gather's headline.
func NegotiationScalingGatherWarm(nodeCounts []int, gather pm2.GatherMode) []NegotiationRow {
	rows := make([]NegotiationRow, 0, len(nodeCounts))
	for _, p := range nodeCounts {
		im := progs.NewImage()
		asm.MustAssemble(im, remedySrc)
		c := pm2.New(pm2.Config{Nodes: p, Gather: gather}, im)
		c.Spawn(0, "remedyalloc", 2)
		c.Run(0)
		st := c.Stats()
		if st.Negotiations != 2 || len(st.NegotiationLatencies) != 2 {
			panic(fmt.Sprintf("bench: %d-node warm run negotiated %d times", p, st.Negotiations))
		}
		rows = append(rows, NegotiationRow{
			Nodes:       p,
			Micros:      st.NegotiationLatencies[1].Micros(),
			MergedBytes: st.GatherMergedBytes,
		})
	}
	return rows
}

// GatherReport is one gather strategy's entry in the negotiation
// report: the cold and warm per-node slopes plus the merged bitmap
// bytes at the largest measured cluster.
type GatherReport struct {
	ColdSlopeMicrosPerNode float64
	WarmSlopeMicrosPerNode float64
	ColdMergedBytes        uint64
	WarmMergedBytes        uint64
}

// NegotiationReport is the gated side of the negotiation figure, keyed
// by gather strategy.
type NegotiationReport map[string]GatherReport

// Rows states the negotiation figure's gates: every strategy's cold
// and warm slope is a ceiling; the merged bytes are exact protocol
// quantities pinned by unit tests and ride along as context.
func (r NegotiationReport) Rows() []Row {
	names := make([]string, 0, len(r))
	for name := range r {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []Row
	for _, name := range names {
		g := r[name]
		rows = append(rows,
			Row{"negotiation", name + ".cold_slope", g.ColdSlopeMicrosPerNode, "us/node", Ceiling},
			Row{"negotiation", name + ".warm_slope", g.WarmSlopeMicrosPerNode, "us/node", Ceiling},
			Row{"negotiation", name + ".cold_merged", float64(g.ColdMergedBytes), "B", Info},
			Row{"negotiation", name + ".warm_merged", float64(g.WarmMergedBytes), "B", Info})
	}
	return rows
}

// ContentionRow is one point of the arbiter contention measurement.
type ContentionRow struct {
	Arbiter    string
	Nodes      int
	Initiators int
	// Succeeded / Retries describe the protocol work; MakespanMicros is
	// the virtual time until the last negotiation completed, and
	// ThroughputPerMs the successful negotiations per virtual millisecond
	// of that makespan.
	Succeeded       int
	Retries         int
	MakespanMicros  float64
	ThroughputPerMs float64
	// P50/P95/P99 are nearest-rank percentiles over the successful
	// negotiation latencies, in microseconds.
	P50, P95, P99 float64
}

// ContentionTable is the contention figure: one row per arbiter at each
// measured nodes × initiators point.
type ContentionTable []ContentionRow

// Rows states the contention figure's gates: the makespan, p50 and p99
// of every arbiter at every point are deterministic virtual quantities,
// held exact.
func (t ContentionTable) Rows() []Row {
	rows := make([]Row, 0, 3*len(t))
	for _, r := range t {
		key := fmt.Sprintf("n%d.i%d.%s.", r.Nodes, r.Initiators, r.Arbiter)
		rows = append(rows,
			Row{"contention", key + "makespan", r.MakespanMicros, "us", Exact},
			Row{"contention", key + "p50", r.P50, "us", Exact},
			Row{"contention", key + "p99", r.P99, "us", Exact})
	}
	return rows
}

// Contention measures the negotiation protocol under concurrent
// initiators: m nodes (evenly spread over the cluster) each start a
// 3-slot negotiation in the same instant, once per arbiter scheme. The
// global arbiter serializes all of them through the node-0 lock, so its
// makespan grows with m; the sharded arbiter lets disjoint
// negotiations overlap — the figure it exists for.
func Contention(nodes, m int, arbiters []pm2.ArbiterMode, gather pm2.GatherMode) ContentionTable {
	if m > nodes {
		m = nodes
	}
	rows := make(ContentionTable, 0, len(arbiters))
	for _, arb := range arbiters {
		c := pm2.New(pm2.Config{Nodes: nodes, Gather: gather, Arbiter: arb}, progs.NewImage())
		succeeded := 0
		for i := 0; i < m; i++ {
			// Spread the initiators over the ranks so their home regions
			// (and shard sets) are representative, not adjacent.
			id := i * nodes / m
			c.At(id, func(n *pm2.Node) {
				n.Negotiate(3, func(ok bool) {
					if ok {
						succeeded++
					}
				})
			})
		}
		c.Run(0)
		st := c.Stats()
		row := ContentionRow{
			Arbiter:        arb.String(),
			Nodes:          nodes,
			Initiators:     m,
			Succeeded:      succeeded,
			Retries:        st.NegotiationRetries,
			MakespanMicros: c.Now().Micros(),
		}
		if row.MakespanMicros > 0 {
			row.ThroughputPerMs = float64(succeeded) / (row.MakespanMicros / 1000)
		}
		// The shared nearest-rank helper (pm2.NearestRank): one percentile
		// implementation across the bench tables, the scenario harness and
		// the cohort SLO accounting.
		pct := pm2.NearestRank(st.NegotiationLatencies)
		row.P50, row.P95, row.P99 = pct.P50, pct.P95, pct.P99
		rows = append(rows, row)
	}
	return rows
}

// SlopeMicrosPerNode least-squares-fits cost against cluster size over
// the measured rows: the per-extra-node cost of the gather strategy (the
// paper's "+165 µs per extra node" for the sequential gather).
func SlopeMicrosPerNode(rows []NegotiationRow) float64 {
	if len(rows) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, r := range rows {
		x, y := float64(r.Nodes), r.Micros
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(rows))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// ThreadCreate measures the average virtual cost of creating (and
// destroying) a thread: one slot acquisition plus descriptor and stack
// initialization — a purely local operation (§4.1).
func ThreadCreate(n int, cfg pm2.Config) (avgCreateMicros float64) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	c := pm2.New(cfg, progs.NewImage())
	entry, _ := c.Image().EntryOf("pingpong") // any program; threads exit at once with 0 hops
	var total float64
	done := false
	c.At(0, func(node *pm2.Node) {
		for i := 0; i < n; i++ {
			t0 := node.Actor().Now()
			th, err := node.Scheduler().Create(entry, 0)
			if err != nil {
				panic(err)
			}
			total += (node.Actor().Now() - t0).Micros()
			_ = th
		}
		node.Kick()
		done = true
	})
	for !done && c.Engine().Step() {
	}
	c.Run(0)
	return total / float64(n)
}

// DistRow is one row of the distribution ablation.
type DistRow struct {
	Dist         string
	Negotiations int
	AvgNegMicros float64
	TotalMicros  float64
}

// DistributionAblation runs the same multi-slot allocation workload under
// each slot distribution (paper §4.1: the initial distribution decides how
// often multi-slot requests go global).
func DistributionAblation(dists []core.Distribution, allocs, nodes int) []DistRow {
	rows := make([]DistRow, 0, len(dists))
	for _, d := range dists {
		c := pm2.New(pm2.Config{Nodes: nodes, Dist: d}, progs.NewImage())
		// One thread per allocation so each faces the initial state of
		// its node's bitmap evolution.
		for i := 0; i < allocs; i++ {
			spawnWithRegs(c, "allocone", 150_000, 0, 0)
		}
		c.Run(0)
		st := c.Stats()
		row := DistRow{Dist: d.Name(), Negotiations: st.Negotiations, TotalMicros: c.Now().Micros()}
		var sum simtime.Time
		for _, l := range st.NegotiationLatencies {
			sum += l
		}
		if st.Negotiations > 0 {
			row.AvgNegMicros = (sum / simtime.Time(st.Negotiations)).Micros()
		}
		rows = append(rows, row)
	}
	return rows
}

// CacheRow is one row of the slot-cache ablation.
type CacheRow struct {
	Label           string
	AvgCreateMicros float64
	Mmaps           uint64
	CacheHits       uint64
}

// SlotCacheAblation measures thread create/destroy churn with and without
// the mmapped-slot cache (the paper's §6 optimization).
func SlotCacheAblation(churn int) []CacheRow {
	out := make([]CacheRow, 0, 2)
	for _, withCache := range []bool{true, false} {
		cfg := pm2.Config{Nodes: 1}
		if !withCache {
			cfg.CacheCap = -1
		}
		c := pm2.New(cfg, progs.NewImage())
		entry, _ := c.Image().EntryOf("pingpong")
		var total float64
		for i := 0; i < churn; i++ {
			created := false
			c.At(0, func(node *pm2.Node) {
				t0 := node.Actor().Now()
				if _, err := node.Scheduler().Create(entry, 0); err != nil {
					panic(err)
				}
				total += (node.Actor().Now() - t0).Micros()
				node.Kick()
				created = true
			})
			for !created && c.Engine().Step() {
			}
			// Drain: the thread exits and its slot is released —
			// into the cache when enabled, munmapped otherwise —
			// so the next creation sees the steady-state path.
			c.Run(0)
		}
		st := c.Node(0).Slots().Stats()
		label := "cache=8"
		if !withCache {
			label = "cache=off"
		}
		out = append(out, CacheRow{
			Label:           label,
			AvgCreateMicros: total / float64(churn),
			Mmaps:           st.Mmaps,
			CacheHits:       st.CacheHits,
		})
	}
	return out
}

// PackRow is one row of the pack-mode ablation.
type PackRow struct {
	Mode        string
	Elements    int
	AvgMicros   float64
	BytesOnWire uint64
}

// PackModeAblation migrates the Figure 7 list thread under both packing
// modes for each list size: used-blocks packing ships only live data (§6),
// whole-slot packing ships every slot byte.
func PackModeAblation(elementCounts []int) []PackRow {
	var rows []PackRow
	for _, mode := range []pm2.PackMode{pm2.PackUsed, pm2.PackWhole} {
		for _, n := range elementCounts {
			c := pm2.New(pm2.Config{Nodes: 2, Pack: mode}, progs.NewImage())
			c.Spawn(0, "p4", uint32(n))
			c.Run(0)
			st := c.Stats()
			if st.Migrations != 1 {
				panic("bench: pack ablation expected exactly one migration")
			}
			rows = append(rows, PackRow{
				Mode:        mode.String(),
				Elements:    n,
				AvgMicros:   st.MigrationLatencies[0].Micros(),
				BytesOnWire: st.Net.Bytes,
			})
		}
	}
	return rows
}

// RemedyRow is one row of the §4.4 remedies ablation: what pre-buying or a
// global defragmentation does to the negotiation count of a multi-slot
// allocation sequence.
type RemedyRow struct {
	Remedy       string
	Negotiations int
	TotalMicros  float64
}

// remedySrc performs `arg` successive ~2-slot allocations.
const remedySrc = `
.program remedyalloc
main:
    enter 4
    store [fp-4], r1
top:
    load  r2, [fp-4]
    loadi r3, 0
    beq   r2, r3, done
    loadi r1, 100000
    callb isomalloc
    load  r2, [fp-4]
    addi  r2, r2, -1
    store [fp-4], r2
    br    top
done:
    leave
    halt
`

// RemediesAblation compares plain round-robin against the paper's §4.4
// remedies: pre-buying during the first negotiation, and a global
// defragmentation before the workload.
func RemediesAblation(allocs, nodes int) []RemedyRow {
	run := func(remedy string) RemedyRow {
		im := progs.NewImage()
		asm.MustAssemble(im, remedySrc)
		cfg := pm2.Config{Nodes: nodes}
		if remedy == "pre-buy:8" {
			cfg.PreBuySlots = 8
		}
		c := pm2.New(cfg, im)
		if remedy == "defragment" {
			c.DefragmentSync(0)
		}
		c.Spawn(0, "remedyalloc", uint32(allocs))
		c.Run(0)
		return RemedyRow{
			Remedy:       remedy,
			Negotiations: c.Stats().Negotiations,
			TotalMicros:  c.Now().Micros(),
		}
	}
	return []RemedyRow{run("none"), run("pre-buy:8"), run("defragment")}
}

// RegPtrRow is one row of the registered-pointer ablation.
type RegPtrRow struct {
	Pointers    int
	IsoMicros   float64 // iso-address migration: flat, no fixups
	RelocMicros float64 // relocation baseline: grows with pointer count
}

// RegisteredPointerAblation compares migration cost as a function of the
// number of (registered) user pointers: the iso-address scheme never looks
// at them, the relocation baseline patches each one.
func RegisteredPointerAblation(counts []int, hops int) []RegPtrRow {
	rows := make([]RegPtrRow, 0, len(counts))
	iso := MigrationPingPong(hops, pm2.Config{Nodes: 2})
	for _, k := range counts {
		reloc := RelocationPingPong(hops, k)
		rows = append(rows, RegPtrRow{
			Pointers:    k,
			IsoMicros:   iso.AvgMicros,
			RelocMicros: reloc.AvgMicros,
		})
	}
	return rows
}
