// pm2bench regenerates every figure, table and in-text measurement of the
// paper's evaluation (§5), plus the ablations from DESIGN.md, as text
// tables. All numbers are virtual microseconds from the calibrated cost
// model; runs are deterministic.
//
// Usage:
//
//	pm2bench -fig all
//	pm2bench -fig 11a          # Figure 11 top: 0–500 KB
//	pm2bench -fig 11b          # Figure 11 bottom: 1–8 MB
//	pm2bench -fig migration    # §5: ping-pong < 75 µs + payload sweep
//	pm2bench -fig negotiation  # §5: 255 µs + 165 µs/node
//	pm2bench -fig negotiation -report .   # also write ./BENCH_negotiation.txt
//	pm2bench -fig contention   # concurrent initiators × negotiation arbiter
//	pm2bench -fig failover     # node death: detection, evacuation vs batch size
//	pm2bench -fig partition    # live partition & slow node: timeouts, suspicion, rejoin
//	pm2bench -fig 5            # Figure 5: the memory layout
//	pm2bench -fig create       # thread creation cost
//	pm2bench -fig ablations    # slot cache / pack mode / distribution / pointers
//	pm2bench -fig scenarios    # placement-policy × workload matrix
//	pm2bench -fig scenarios -policy work-stealing
//	pm2bench -fig scenarios -arbiter sharded
//	pm2bench -fig serve        # serving workload: per-cohort SLO + saturation knee
//	pm2bench -fig scale        # kernel throughput: 64/256/1024/4096 nodes, ring hops + gather bursts
//	pm2bench -fig scale -cpuprofile scale.pprof
//	pm2bench -fig scale -nodes 4096 -gather tree   # one size, one gather column
//
// The scale figure is the only one whose wall-clock columns measure the
// host machine; its virtual columns (events, migrations, virtual time)
// are exact and are what CI gates. -cpuprofile/-memprofile write pprof
// profiles of whatever figure runs.
//
// -report DIR writes DIR/BENCH_<figure>.txt for each gated figure that
// runs (migration, negotiation, contention, failover, partition, serve,
// scale); `benchcheck ci DIR` holds them against the committed
// baselines. The cluster flags are pm2.BindFlags's; of them only -nodes,
// -policy, -gather and -arbiter configure a figure, and the rest are
// refused.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/pm2"
	"repro/internal/policy"
	"repro/internal/scenario"
	pm2pub "repro/pm2"
)

// gatherModes lists every §4.4 gather strategy, in figure column order.
var gatherModes = []pm2.GatherMode{pm2.GatherSequential, pm2.GatherTree, pm2.GatherDelta}

func main() {
	clusterFlags := pm2pub.BindFlags(flag.CommandLine, pm2pub.Config{Nodes: 4})
	fig := flag.String("fig", "all", "which experiment to regenerate")
	trials := flag.Int("trials", 3, "trials per Figure 11 point")
	seed := flag.Uint64("seed", 1, "workload seed for -fig scenarios")
	reportDir := flag.String("report", "", "also write each gated figure's report to DIR/BENCH_<figure>.txt")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	flag.Parse()
	cfg, err := clusterFlags()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2bench: %v\n", err)
		os.Exit(2)
	}
	// -nodes sizes -fig scenarios and, when set, narrows the -fig scale
	// sweep to one size; -policy, -gather and -arbiter pick the scenario
	// configuration and, when set, restrict -fig serve, scale and
	// contention to one column. The other cluster flags configure no
	// figure.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		switch f.Name {
		case "dist", "fault", "rpc-timeout", "convoy":
			fmt.Fprintf(os.Stderr, "pm2bench: -%s does not apply to the figures\n", f.Name)
			os.Exit(2)
		}
	})

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pm2bench: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pm2bench: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pm2bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pm2bench: %v\n", err)
			}
		}()
	}

	// report writes a gated figure's rows under -report, if given.
	report := func(rows []bench.Row) {
		if *reportDir == "" {
			return
		}
		path, err := bench.WriteReport(*reportDir, rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pm2bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", path)
	}
	pols := policy.Names()
	servePolicy := "work-stealing" // absorbs open-loop load best
	if set["policy"] {
		pols, servePolicy = []string{cfg.Policy}, cfg.Policy
	}
	scaleNodes := []int{64, 256, 1024, 4096}
	if set["nodes"] {
		scaleNodes = []int{cfg.Nodes}
	}
	var scaleGathers []pm2.GatherMode
	for _, gm := range gatherModes {
		if !set["gather"] || gm.String() == cfg.Gather {
			scaleGathers = append(scaleGathers, gm)
		}
	}
	var arbiters []pm2.ArbiterMode
	for _, a := range []pm2.ArbiterMode{pm2.ArbiterGlobal, pm2.ArbiterSharded} {
		if !set["arbiter"] || a.String() == cfg.Arbiter {
			arbiters = append(arbiters, a)
		}
	}

	switch *fig {
	case "all":
		layoutFig()
		fig11a(*trials)
		fig11b(*trials)
		report(migration())
		report(negotiation())
		report(contention(arbiters))
		report(failover())
		report(partitionFig())
		create()
		ablations()
		scenarios(pols, *seed, cfg)
		report(serveFig(servePolicy, *seed))
		report(scaleFig(scaleNodes, scaleGathers))
	case "5":
		layoutFig()
	case "11a":
		fig11a(*trials)
	case "11b":
		fig11b(*trials)
	case "migration":
		report(migration())
	case "negotiation":
		report(negotiation())
	case "contention":
		report(contention(arbiters))
	case "failover":
		report(failover())
	case "partition":
		report(partitionFig())
	case "create":
		create()
	case "ablations":
		ablations()
	case "scenarios":
		scenarios(pols, *seed, cfg)
	case "serve":
		report(serveFig(servePolicy, *seed))
	case "scale":
		report(scaleFig(scaleNodes, scaleGathers))
	default:
		fmt.Fprintf(os.Stderr, "pm2bench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Printf("\n================ %s\n", title)
}

func layoutFig() {
	header("Figure 5: the shared memory layout (identical on all nodes)")
	rows := []struct {
		name       string
		base, end  uint32
		annotation string
	}{
		{"code", layout.CodeBase, layout.CodeEnd, "fixed at compile time, replicated"},
		{"static data", layout.DataBase, layout.DataEnd, "string table etc., replicated"},
		{"local heap", layout.HeapBase, layout.HeapEnd, "malloc; node-local, never migrates"},
		{"iso-address area", layout.IsoBase, layout.IsoEnd, "globally reserved, locally allocated"},
		{"process stack", layout.StackBase, layout.StackEnd, "container process"},
	}
	fmt.Printf("%-18s %-12s %-12s %9s   %s\n", "region", "base", "end", "size", "notes")
	for _, r := range rows {
		fmt.Printf("%-18s 0x%08x   0x%08x   %9s   %s\n",
			r.name, r.base, r.end, human(uint64(r.end-r.base)), r.annotation)
	}
	fmt.Printf("\nslots: %d bytes each, %d slots, per-node bitmap %d bytes (paper: 64 kB / 57344 / 7 kB)\n",
		layout.SlotSize, layout.SlotCount, layout.BitmapBytes)
}

func human(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.0f MB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.0f KB", float64(n)/(1<<10))
	}
}

func fig11(title string, sizes []uint32, trials int) {
	header(title)
	fmt.Printf("%12s %16s %20s %14s %s\n",
		"size (bytes)", "malloc (µs)", "pm2_isomalloc (µs)", "overhead (µs)", "negotiated")
	for _, r := range bench.Fig11(sizes, trials, 2) {
		neg := ""
		if r.Negotiated {
			neg = "yes"
		}
		fmt.Printf("%12d %16.1f %20.1f %14.1f %10s\n",
			r.Size, r.MallocMicros, r.IsoMicros, r.IsoMicros-r.MallocMicros, neg)
	}
}

func fig11a(trials int) {
	sizes := []uint32{}
	for s := uint32(25_000); s <= 500_000; s += 25_000 {
		sizes = append(sizes, s)
	}
	fig11("Figure 11 (top): malloc vs pm2_isomalloc, small requests, 2 nodes, round-robin", sizes, trials)
	fmt.Println("\n(paper: both curves rise together; the isomalloc offset is the ~255 µs negotiation,")
	fmt.Println(" triggered by every multi-slot request under round-robin)")
}

func fig11b(trials int) {
	sizes := []uint32{}
	for s := uint32(1 << 20); s <= 8<<20; s += 1 << 20 {
		sizes = append(sizes, s)
	}
	fig11("Figure 11 (bottom): malloc vs pm2_isomalloc, large requests, 2 nodes, round-robin", sizes, trials)
	fmt.Println("\n(paper: for large allocations the overhead is small and rather insignificant —")
	fmt.Println(" the approach scales well)")
}

func migration() []bench.Row {
	header("§5: thread migration (ping-pong between two Myrinet nodes)")
	r := bench.MigrationPingPong(100, pm2.Config{})
	fmt.Printf("no static data : avg %6.1f µs   worst %6.1f µs   (paper: < 75 µs)\n", r.AvgMicros, r.WorstMicros)
	fmt.Printf("\nwith isomalloc'd payload: copying path vs zero-copy scatter-gather (Config.Convoy):\n")
	fmt.Printf("%14s %14s %16s %12s %14s\n", "payload (B)", "legacy (µs)", "zero-copy (µs)", "saved", "wire bytes/hop")
	const gatePayload = 64 << 10
	var gateLegacy, gateZeroCopy float64
	for _, payload := range []uint32{0, 1 << 10, 8 << 10, 32 << 10, gatePayload, 256 << 10} {
		run := func(convoy bool) bench.MigrationResult {
			cfg := pm2.Config{Convoy: convoy}
			if payload == 0 {
				return bench.MigrationPingPong(20, cfg)
			}
			return bench.MigrationWithPayload(20, payload, cfg)
		}
		legacy, zc := run(false), run(true)
		if payload == gatePayload {
			gateLegacy, gateZeroCopy = legacy.AvgMicros, zc.AvgMicros
		}
		fmt.Printf("%14d %14.1f %16.1f %11.1f%% %14d\n", payload, legacy.AvgMicros, zc.AvgMicros,
			100*(1-zc.AvgMicros/legacy.AvgMicros), legacy.BytesOnWire/uint64(legacy.Hops))
	}
	fmt.Println("(the zero-copy pipeline drops the pack, NIC and install copies — the NIC gathers")
	fmt.Println(" the spans from slot memory and scatters them into the installed pages, charging")
	fmt.Println(" one DMA setup per span; wire occupancy still covers every byte)")

	header("Extension: thread convoys — k threads to one destination per balancing decision")
	fmt.Printf("%12s %4s %18s %18s %10s %14s %14s\n",
		"payload (B)", "k", "legacy µs/thread", "convoy µs/thread", "saved", "msgs (L/C)", "convoy B/thread")
	convoyRows := bench.MigrationConvoy(gatePayload, []int{1, 2, 4, 8})
	for _, row := range convoyRows {
		fmt.Printf("%12d %4d %18.1f %18.1f %9.1f%% %10d/%-3d %14d\n",
			row.Payload, row.K, row.PerThreadLegacyMicros, row.PerThreadConvoyMicros,
			100*(1-row.PerThreadConvoyMicros/row.PerThreadLegacyMicros),
			row.LegacyMessages, row.ConvoyMessages, row.ConvoyBytesPerThread)
	}
	fmt.Println("(a convoy pays one express header, one send/receive overhead and one wire latency")
	fmt.Println(" for the whole batch — per-thread cost falls as k grows, sub-linear in messages)")

	rel := bench.RelocationPingPong(20, 32)
	fmt.Printf("\nrelocation baseline (32 registered pointers): avg %.1f µs\n", rel.AvgMicros)
	fmt.Println("(the paper cites 150 µs for a null-thread migration in Active Threads)")

	return bench.MigrationReport{
		PayloadBytes:         gatePayload,
		LegacyMicrosPerHop:   gateLegacy,
		ZeroCopyMicrosPerHop: gateZeroCopy,
		Convoy:               convoyRows,
	}.Rows()
}

func negotiation() []bench.Row {
	header("§5: negotiation cost vs cluster size (multi-slot alloc, round-robin)")
	fmt.Printf("%8s %14s %18s\n", "nodes", "cost (µs)", "delta/node (µs)")
	prev, prevNodes := 0.0, 0
	for _, r := range bench.NegotiationScaling([]int{2, 3, 4, 5, 6, 8, 12, 16}) {
		delta := ""
		if prevNodes > 0 {
			delta = fmt.Sprintf("%.1f", (r.Micros-prev)/float64(r.Nodes-prevNodes))
		}
		fmt.Printf("%8d %14.1f %18s\n", r.Nodes, r.Micros, delta)
		prev, prevNodes = r.Micros, r.Nodes
	}
	fmt.Println("\n(paper: 255 µs in a 2-node configuration, +165 µs per extra node)")

	header("Extension: gather strategy vs cluster size (same negotiation, cold)")
	counts := []int{4, 8, 16, 32, 64}
	costs := make(map[pm2.GatherMode][]bench.NegotiationRow, len(gatherModes))
	for _, m := range gatherModes {
		costs[m] = bench.NegotiationScalingGather(counts, m)
	}
	printGatherTable(counts, costs)
	fmt.Println("(delta overlaps the reply wire time; the tree also cuts the messages the")
	fmt.Println(" initiator handles to O(log n) at the price of a range-style purchase; a cold")
	fmt.Println(" delta gather is first contact everywhere, so it ships full maps)")

	header("Extension: steady state — second negotiation by the same initiator")
	warm := make(map[pm2.GatherMode][]bench.NegotiationRow, len(gatherModes))
	for _, m := range gatherModes {
		warm[m] = bench.NegotiationScalingGatherWarm(counts, m)
	}
	printGatherTable(counts, warm)
	last := len(counts) - 1
	seqBytes := warm[pm2.GatherSequential][last].MergedBytes
	delBytes := warm[pm2.GatherDelta][last].MergedBytes
	// The first delta negotiation is first contact everywhere: exactly one
	// full map per peer. Everything beyond that is what the warm round cost.
	delWarm := delBytes - uint64((counts[last]-1)*layout.BitmapBytes)
	fmt.Printf("merged bytes over both negotiations at %d nodes: sequential %d, delta %d (%.1f%% less)\n",
		counts[last], seqBytes, delBytes, 100*(1-float64(delBytes)/float64(seqBytes)))
	fmt.Printf("warm round alone at %d nodes: sequential %d bytes, delta %d bytes\n",
		counts[last], seqBytes/2, delWarm)
	fmt.Println("(the delta gather caches each peer's map + version and the global OR between")
	fmt.Println(" rounds; warm rounds ship only the words that changed, so the merge term — a")
	fmt.Println(" full 7 KB per peer per round under sequential and tree — drops to the delta bytes)")

	report := bench.NegotiationReport{}
	for _, m := range gatherModes {
		report[m.String()] = bench.GatherReport{
			ColdSlopeMicrosPerNode: bench.SlopeMicrosPerNode(costs[m]),
			WarmSlopeMicrosPerNode: bench.SlopeMicrosPerNode(warm[m]),
			ColdMergedBytes:        costs[m][last].MergedBytes,
			WarmMergedBytes:        warm[m][last].MergedBytes,
		}
	}
	return report.Rows()
}

// printGatherTable prints one negotiation-cost row per cluster size with
// a column per gather strategy, then each strategy's per-node slope.
func printGatherTable(counts []int, rows map[pm2.GatherMode][]bench.NegotiationRow) {
	fmt.Printf("%8s", "nodes")
	for _, m := range gatherModes {
		fmt.Printf(" %16s", m.String()+" (µs)")
	}
	fmt.Println()
	for i, p := range counts {
		fmt.Printf("%8d", p)
		for _, m := range gatherModes {
			fmt.Printf(" %16.1f", rows[m][i].Micros)
		}
		fmt.Println()
	}
	fmt.Printf("\n%-12s", "slope µs/node:")
	for _, m := range gatherModes {
		fmt.Printf("  %s %.1f", m, bench.SlopeMicrosPerNode(rows[m]))
	}
	fmt.Println()
}

// contention prints the concurrent-initiator comparison: M nodes start
// a multi-slot negotiation in the same instant under each arbiter. The
// delta gather keeps the gather term identical across arbiters, so the
// spread between the rows is purely the concurrency scheme.
func contention(arbs []pm2.ArbiterMode) []bench.Row {
	header("Extension: concurrent initiators × negotiation arbiter (3-slot allocs, delta gather)")
	fmt.Printf("%6s %6s %-12s %4s %8s %14s %10s %10s %10s %10s\n",
		"nodes", "inits", "arbiter", "ok", "retries", "makespan µs", "negos/ms", "p50 µs", "p95 µs", "p99 µs")
	var table bench.ContentionTable
	for _, nm := range []struct{ nodes, inits int }{{4, 4}, {16, 4}, {16, 8}, {16, 16}, {64, 16}, {64, 32}} {
		for _, r := range bench.Contention(nm.nodes, nm.inits, arbs, pm2.GatherDelta) {
			fmt.Printf("%6d %6d %-12s %4d %8d %14.1f %10.2f %10.1f %10.1f %10.1f\n",
				r.Nodes, r.Initiators, r.Arbiter, r.Succeeded, r.Retries,
				r.MakespanMicros, r.ThroughputPerMs, r.P50, r.P95, r.P99)
			table = append(table, r)
		}
	}
	fmt.Println("\n(the global arbiter serializes every negotiation through node 0's lock, so its")
	fmt.Println(" makespan grows with the initiator count; the sharded arbiter locks only the")
	fmt.Println(" shards a planned run touches, so disjoint negotiations overlap)")
	return table.Rows()
}

// failover prints the fail-stop recovery figure: one node of four dies
// under k resident threads; the table reports the lease-expiry
// detection latency and the evacuation makespan with the convoy
// pipeline off and on.
func failover() []bench.Row {
	header("Extension: node death — detection, evacuation and reclaim (4 nodes, victim holds k threads)")
	report := bench.Failover([]int{1, 2, 4, 8, 16})
	fmt.Printf("detection latency: %.1f µs (2-miss lease, 1 ms heartbeats; the crash lands on a tick, so the lease expires one period later), independent of k\n\n", report.DetectionMicros)
	fmt.Printf("%4s %18s %18s %10s %16s\n", "k", "evac legacy (µs)", "evac convoy (µs)", "saved", "reclaimed slots")
	for _, r := range report.Points {
		fmt.Printf("%4d %18.1f %18.1f %9.1f%% %16d\n",
			r.K, r.EvacLegacyMicros, r.EvacConvoyMicros,
			100*(1-r.EvacConvoyMicros/r.EvacLegacyMicros), r.ReclaimedSlots)
	}
	fmt.Println("\n(evacuation ships one recovery convoy per survivor — the makespan grows with the")
	fmt.Println(" per-survivor share of k, not with k itself; the dead rank's owned-free slots are")
	fmt.Println(" re-dealt through version-bumping purchases, so stale cached views self-invalidate)")
	return report.Rows()
}

// partitionFig prints the partial-failure figure: one rank of eight is
// partitioned away (alive, unreachable) while k concurrent negotiations
// route around it on RPC deadlines; the slow table slows a rank instead
// of cutting it off. Nothing is ever evacuated — the victim rejoins.
func partitionFig() []bench.Row {
	header("Extension: live partition — RPC deadlines, suspicion and rejoin (8 nodes, victim cut off 1–9 ms)")
	report := bench.Partition([]int{1, 2, 4, 6}, []int{2, 10, 50})
	fmt.Printf("rejoin latency: %.1f µs (suspected at the 2-miss lease, cleared on the first round after the heal), independent of k; zero evacuations throughout\n\n", report.RejoinMicros)
	fmt.Printf("%4s %14s %18s\n", "k", "rpc timeouts", "nego makespan (µs)")
	for _, r := range report.Points {
		fmt.Printf("%4d %14d %18.1f\n", r.K, r.RPCTimeouts, r.NegotiationMicros)
	}
	fmt.Printf("\nslow node (4 nodes, one rank's wire time × factor, never suspected):\n")
	fmt.Printf("%8s %14s %18s\n", "factor", "rpc timeouts", "negotiation (µs)")
	for _, r := range report.SlowPoints {
		fmt.Printf("%8d %14d %18.1f\n", r.Factor, r.RPCTimeouts, r.NegotiationMicros)
	}
	fmt.Println("\n(a gather abandons the unreachable rank after its retry budget and plans around")
	fmt.Println(" its slots; suspicion routes new work away but never evacuates a live node —")
	fmt.Println(" declaration additionally requires the crash to be real. A slow rank blows the")
	fmt.Println(" same deadlines yet stays a member: detection is reachability-based)")
	return report.Rows()
}

func create() {
	header("Thread creation (one local slot: no negotiation, ever)")
	avg := bench.ThreadCreate(100, pm2.Config{})
	fmt.Printf("average create cost: %.1f µs (slot acquire + descriptor/stack init)\n", avg)
	rows := bench.SlotCacheAblation(50)
	for _, r := range rows {
		fmt.Printf("%-10s  avg create %6.1f µs   mmap calls %3d   cache hits %3d\n",
			r.Label, r.AvgCreateMicros, r.Mmaps, r.CacheHits)
	}
}

func ablations() {
	header("Ablation A1/A2: migration pack mode (§6 optimization)")
	fmt.Printf("%-12s %10s %12s %16s\n", "mode", "elements", "avg (µs)", "wire bytes")
	for _, r := range bench.PackModeAblation([]int{200, 1000, 2000}) {
		fmt.Printf("%-12s %10d %12.1f %16d\n", r.Mode, r.Elements, r.AvgMicros, r.BytesOnWire)
	}

	header("Ablation A3: slot distribution vs negotiation frequency (§4.1)")
	fmt.Printf("%-18s %14s %16s %18s\n", "distribution", "negotiations", "avg cost (µs)", "total time (µs)")
	for _, r := range bench.DistributionAblation([]core.Distribution{
		core.RoundRobin{}, core.BlockCyclic{K: 4}, core.BlockCyclic{K: 32}, core.Partition{},
	}, 4, 4) {
		fmt.Printf("%-18s %14d %16.1f %18.1f\n", r.Dist, r.Negotiations, r.AvgNegMicros, r.TotalMicros)
	}

	header("Extension: the §4.4 remedies for multi-slot negotiations")
	fmt.Printf("%-14s %14s %18s\n", "remedy", "negotiations", "total time (µs)")
	for _, r := range bench.RemediesAblation(6, 4) {
		fmt.Printf("%-14s %14d %18.1f\n", r.Remedy, r.Negotiations, r.TotalMicros)
	}

	header("Ablation A4: migration cost vs registered pointers (iso flat, relocation linear)")
	fmt.Printf("%10s %14s %18s\n", "pointers", "iso (µs)", "relocation (µs)")
	for _, r := range bench.RegisteredPointerAblation([]int{0, 8, 32, 128, 512}, 10) {
		fmt.Printf("%10d %14.1f %18.1f\n", r.Pointers, r.IsoMicros, r.RelocMicros)
	}
}

// scenarios prints the placement-policy comparison: every deterministic
// workload generator under each of pols, on the cfg cluster size,
// gather and arbiter.
func scenarios(pols []string, seed uint64, cfg pm2pub.Config) {
	if cfg.Nodes < 2 {
		// The failover and partition generators fault a rank other than 0.
		fmt.Fprintf(os.Stderr, "pm2bench: -fig scenarios needs at least 2 nodes, have %d\n", cfg.Nodes)
		os.Exit(2)
	}
	header(fmt.Sprintf("Scenario harness: placement policy × workload (%d nodes, %s gather, %s arbiter, deterministic)", cfg.Nodes, cfg.Gather, cfg.Arbiter))
	fmt.Printf("%-10s %-14s %12s %10s %8s %6s %10s %10s %10s %12s\n",
		"scenario", "policy", "virtual µs", "migrations", "balmoves", "negos", "neg p50µs", "neg p95µs", "neg p99µs", "wire bytes")
	for _, g := range scenario.GeneratorNames() {
		for _, p := range pols {
			res, err := scenario.Run(scenario.Spec{Scenario: g, Policy: p, Seed: seed, Nodes: cfg.Nodes, Gather: cfg.Gather, Arbiter: cfg.Arbiter})
			if err != nil {
				fmt.Fprintf(os.Stderr, "pm2bench: %v\n", err)
				os.Exit(1)
			}
			if err := res.Verify(); err != nil {
				fmt.Fprintf(os.Stderr, "pm2bench: %v\n", err)
				os.Exit(1)
			}
			neg := res.NegotiationPercentiles()
			fmt.Printf("%-10s %-14s %12.1f %10d %8d %6d %10.1f %10.1f %10.1f %12d\n",
				g, p, res.VirtualMicros, res.Stats.Migrations, res.BalancerMoves,
				res.Stats.Negotiations, neg.P50, neg.P95, neg.P99, res.Stats.Net.Bytes)
		}
	}
	fmt.Println("\n(same seed + policy ⇒ byte-identical trace; see internal/scenario/testdata)")
}

// serveFig prints the serving-workload figure: per-cohort SLO at the
// base arrival rate, then the rate sweep to the throughput knee — at 16
// and 64 nodes.
func serveFig(polName string, seed uint64) []bench.Row {
	report, err := bench.ServeSweep(polName, seed, []int{16, 64})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2bench: %v\n", err)
		os.Exit(1)
	}
	for _, cl := range report.Clusters {
		header(fmt.Sprintf("Serving workload: per-cohort SLO, %d nodes, %s, base rate (open-loop)", cl.Nodes, polName))
		fmt.Printf("%-8s %8s %12s %12s %12s %12s %12s %12s\n",
			"cohort", "requests", "place p50µs", "place p95µs", "place p99µs", "e2e p50µs", "e2e p95µs", "e2e p99µs")
		for _, c := range cl.Cohorts {
			fmt.Printf("%-8s %8d %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f\n",
				c.Cohort, c.Requests, c.PlacementP50Us, c.PlacementP95Us, c.PlacementP99Us,
				c.EndToEndP50Us, c.EndToEndP95Us, c.EndToEndP99Us)
		}
		fmt.Printf("\nsaturation sweep (SLO: worst cohort p99 e2e ≤ %.0f µs):\n", float64(bench.ServeSLOBudgetMicros))
		fmt.Printf("%10s %9s %10s %10s %14s %12s\n",
			"rate×", "requests", "completed", "saturated", "worst p99 µs", "sustainable")
		for _, p := range cl.Sweep {
			sat, sus := "", "yes"
			if p.Saturated {
				sat = "cutoff"
			}
			if !p.Sustainable {
				sus = "no"
			}
			fmt.Printf("%10.1f %9d %10d %10s %14.1f %12s\n",
				p.RateScale, p.Requests, p.Completed, sat, p.WorstP99Us, sus)
		}
		fmt.Printf("\nknee: %.1f× base rate (%.2f requests/ms sustained)\n", cl.KneeRateScale, cl.KneeThroughputPerMs)
	}
	fmt.Println("\n(open-loop arrivals do not wait for completions: past the knee the backlog grows")
	fmt.Println(" during the arrival window and p99 blows through the SLO; past-knee points are cut")
	fmt.Println(" off by a tightened step budget — deterministically, virtual steps are exact)")
	return report.Rows()
}

// scaleFig prints the kernel-throughput figure: the serial event kernel
// executing the ring-hop workload at 64/256/1024/4096 nodes, plus one
// negotiation burst per gather strategy at every size. The virtual
// columns are exact; wall-clock and events/sec measure the host.
func scaleFig(nodeCounts []int, gathers []pm2.GatherMode) []bench.Row {
	header("Extension: kernel throughput — one event heap (ring-hop workload)")
	report := bench.Scale(nodeCounts, 16, 2000, gathers)
	fmt.Printf("%6s %8s %10s %12s %11s  %10s %14s\n",
		"nodes", "threads", "events", "migrations", "virtual µs", "wall ms", "events/sec")
	for _, cl := range report.Clusters {
		fmt.Printf("%6d %8d %10d %12d %11.1f  %10.1f %14.0f\n",
			cl.Nodes, cl.Threads, cl.Events, cl.Migrations, cl.VirtualMicros, cl.WallMs, cl.EventsPerSec)
	}
	fmt.Println("\ngather burst: 8 initiators × 3-slot runs per cluster (every request is remote under round-robin striping)")
	fmt.Printf("%6s %-10s %9s %6s %6s %11s %11s  %10s\n",
		"nodes", "gather", "events", "negos", "fails", "merged B", "virtual µs", "wall ms")
	for _, cl := range report.Clusters {
		for _, g := range cl.Gathers {
			fmt.Printf("%6d %-10s %9d %6d %6d %11d %11.1f  %10.1f\n",
				cl.Nodes, g.Gather, g.Events, g.Negotiations, g.Failures, g.MergedBytes, g.VirtualMicros, g.WallMs)
		}
	}

	fmt.Printf("\nevents slope: %.1f events/node (virtual, exact — the CI-gated quantity)\n", report.EventsSlopePerNode)
	fmt.Println("(wall ms and events/sec measure this host and stay informational)")
	return report.Rows()
}
