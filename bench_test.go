// The repository benchmark suite: one benchmark per figure, table and
// in-text measurement of the paper's evaluation (§5), plus the ablations
// from DESIGN.md. Every benchmark reports the virtual-time result of the
// calibrated simulation as a "sim-µs" metric (the number to compare against
// the paper) next to the usual wall-clock ns/op of the harness itself.
//
// Regenerate the full tables with: go run ./cmd/pm2bench -fig all
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pm2"
	"repro/internal/progs"
)

// BenchmarkFig11Small regenerates Figure 11 (top): average allocation time
// for 25–500 KB requests, malloc vs pm2_isomalloc, 2 nodes, round-robin.
func BenchmarkFig11Small(b *testing.B) {
	for _, size := range []uint32{25_000, 100_000, 250_000, 500_000} {
		b.Run(fmt.Sprintf("size=%dKB", size/1000), func(b *testing.B) {
			var rows []bench.Fig11Row
			for i := 0; i < b.N; i++ {
				rows = bench.Fig11([]uint32{size}, 1, 2)
			}
			b.ReportMetric(rows[0].MallocMicros, "malloc-sim-µs")
			b.ReportMetric(rows[0].IsoMicros, "isomalloc-sim-µs")
			b.ReportMetric(rows[0].IsoMicros-rows[0].MallocMicros, "overhead-sim-µs")
		})
	}
}

// BenchmarkFig11Large regenerates Figure 11 (bottom): 1–8 MB requests.
func BenchmarkFig11Large(b *testing.B) {
	for _, mb := range []uint32{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("size=%dMB", mb), func(b *testing.B) {
			var rows []bench.Fig11Row
			for i := 0; i < b.N; i++ {
				rows = bench.Fig11([]uint32{mb << 20}, 1, 2)
			}
			b.ReportMetric(rows[0].MallocMicros, "malloc-sim-µs")
			b.ReportMetric(rows[0].IsoMicros, "isomalloc-sim-µs")
			b.ReportMetric(rows[0].IsoMicros-rows[0].MallocMicros, "overhead-sim-µs")
		})
	}
}

// BenchmarkMigrationPingPong regenerates the §5 headline measurement: a
// thread with no static data migrates across the (simulated) Myrinet in
// less than 75 µs. Allocations are reported: the pooled, borrowed-section
// data path is gated on allocs/op staying down (see EXPERIMENTS.md).
func BenchmarkMigrationPingPong(b *testing.B) {
	b.ReportAllocs()
	var r bench.MigrationResult
	for i := 0; i < b.N; i++ {
		r = bench.MigrationPingPong(50, pm2.Config{})
	}
	b.ReportMetric(r.AvgMicros, "sim-µs/migration")
	b.ReportMetric(r.WorstMicros, "worst-sim-µs")
}

// BenchmarkMigrationPingPongZeroCopy is the same measurement over the
// zero-copy scatter-gather pipeline (Config.Convoy): the NIC gathers the
// thread image from slot memory and scatters it into the installed pages,
// eliminating the pack, NIC and install copies on both sides.
func BenchmarkMigrationPingPongZeroCopy(b *testing.B) {
	b.ReportAllocs()
	var r bench.MigrationResult
	for i := 0; i < b.N; i++ {
		r = bench.MigrationPingPong(50, pm2.Config{Convoy: true})
	}
	b.ReportMetric(r.AvgMicros, "sim-µs/migration")
	b.ReportMetric(r.WorstMicros, "worst-sim-µs")
}

// BenchmarkMigrationConvoy measures the convoy batching win: k threads
// with one-slot payloads moved to one destination in a single balancing
// decision, as one zero-copy convoy versus k individual messages.
func BenchmarkMigrationConvoy(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var rows []bench.ConvoyRow
			for i := 0; i < b.N; i++ {
				rows = bench.MigrationConvoy(64<<10, []int{k})
			}
			b.ReportMetric(rows[0].PerThreadLegacyMicros, "legacy-sim-µs/thread")
			b.ReportMetric(rows[0].PerThreadConvoyMicros, "convoy-sim-µs/thread")
		})
	}
}

// BenchmarkMigrationVsPayload is ablation A5: end-to-end migration cost as
// a function of the isomalloc'd payload the thread carries.
func BenchmarkMigrationVsPayload(b *testing.B) {
	for _, payload := range []uint32{0, 1 << 10, 8 << 10, 32 << 10, 60 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("payload=%dKB", payload/1024), func(b *testing.B) {
			var r bench.MigrationResult
			for i := 0; i < b.N; i++ {
				if payload == 0 {
					r = bench.MigrationPingPong(20, pm2.Config{})
				} else {
					r = bench.MigrationWithPayload(20, payload, pm2.Config{})
				}
			}
			b.ReportMetric(r.AvgMicros, "sim-µs/migration")
			b.ReportMetric(float64(r.BytesOnWire)/float64(r.Hops), "wire-B/hop")
		})
	}
}

// BenchmarkRelocationMigration is the §2 baseline (E13): stack relocation
// with a post-migration fixup pass (compare the paper's Active Threads
// citation of 150 µs per null-thread migration).
func BenchmarkRelocationMigration(b *testing.B) {
	for _, ptrs := range []int{0, 32, 256} {
		b.Run(fmt.Sprintf("regptrs=%d", ptrs), func(b *testing.B) {
			var r bench.MigrationResult
			for i := 0; i < b.N; i++ {
				r = bench.RelocationPingPong(20, ptrs)
			}
			b.ReportMetric(r.AvgMicros, "sim-µs/migration")
		})
	}
}

// BenchmarkNegotiationScaling regenerates the §5 negotiation measurement:
// ≈255 µs on two nodes plus ≈165 µs per extra node.
func BenchmarkNegotiationScaling(b *testing.B) {
	for _, nodes := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var rows []bench.NegotiationRow
			for i := 0; i < b.N; i++ {
				rows = bench.NegotiationScaling([]int{nodes})
			}
			b.ReportMetric(rows[0].Micros, "sim-µs/negotiation")
		})
	}
}

// BenchmarkThreadCreate is E14: thread creation is a purely local
// operation — one slot, no negotiation, whatever the distribution (§4.1).
func BenchmarkThreadCreate(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		avg = bench.ThreadCreate(100, pm2.Config{})
	}
	b.ReportMetric(avg, "sim-µs/create")
}

// BenchmarkAblationSlotCache is A1: the §6 mmapped-slot cache versus cold
// mmap on every thread creation.
func BenchmarkAblationSlotCache(b *testing.B) {
	var rows []bench.CacheRow
	for i := 0; i < b.N; i++ {
		rows = bench.SlotCacheAblation(30)
	}
	for _, r := range rows {
		b.ReportMetric(r.AvgCreateMicros, r.Label+"-sim-µs")
	}
}

// BenchmarkAblationPackMode is A2: used-blocks packing (§6) versus
// whole-slot packing for the Figure 7 list thread.
func BenchmarkAblationPackMode(b *testing.B) {
	var rows []bench.PackRow
	for i := 0; i < b.N; i++ {
		rows = bench.PackModeAblation([]int{1000})
	}
	for _, r := range rows {
		b.ReportMetric(r.AvgMicros, r.Mode+"-sim-µs")
		b.ReportMetric(float64(r.BytesOnWire), r.Mode+"-wire-B")
	}
}

// BenchmarkAblationDistribution is A3: how the initial slot distribution
// decides the multi-slot negotiation rate (§4.1).
func BenchmarkAblationDistribution(b *testing.B) {
	dists := []core.Distribution{core.RoundRobin{}, core.BlockCyclic{K: 8}, core.Partition{}}
	var rows []bench.DistRow
	for i := 0; i < b.N; i++ {
		rows = bench.DistributionAblation(dists, 3, 4)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Negotiations), r.Dist+"-negotiations")
	}
}

// BenchmarkAblationRegisteredPointers is A4: iso-address migration is flat
// in the pointer count; the relocation baseline pays per pointer.
func BenchmarkAblationRegisteredPointers(b *testing.B) {
	var rows []bench.RegPtrRow
	for i := 0; i < b.N; i++ {
		rows = bench.RegisteredPointerAblation([]int{0, 64, 512}, 10)
	}
	for _, r := range rows {
		b.ReportMetric(r.RelocMicros, fmt.Sprintf("reloc-%dptr-sim-µs", r.Pointers))
	}
	b.ReportMetric(rows[0].IsoMicros, "iso-any-ptr-sim-µs")
}

// BenchmarkExtensionRemedies measures the §4.4 remedies: pre-buy and
// global defragmentation versus plain round-robin negotiations.
func BenchmarkExtensionRemedies(b *testing.B) {
	var rows []bench.RemedyRow
	for i := 0; i < b.N; i++ {
		rows = bench.RemediesAblation(6, 4)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Negotiations), r.Remedy+"-negotiations")
	}
}

// BenchmarkFig7ListTraversalMigration runs the full Figure 7 workload (the
// E7 scenario): build, traverse, migrate at element 100, finish remotely.
func BenchmarkFig7ListTraversalMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := pm2.New(pm2.Config{Nodes: 2}, progs.NewImage())
		c.Spawn(0, "p4", 1000)
		c.Run(0)
		if c.Stats().Migrations != 1 {
			b.Fatal("expected one migration")
		}
	}
}

// BenchmarkInterpreter measures the raw interpreter throughput (our
// substrate, not a paper number): instructions per op and host ns per
// instruction.
func BenchmarkInterpreter(b *testing.B) {
	c := pm2.New(pm2.Config{Nodes: 1, Quantum: 10_000}, progs.NewImage())
	entry, _ := c.Image().EntryOf("worker")
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		c.At(0, func(n *pm2.Node) {
			if _, err := n.Scheduler().Create(entry, 50_000); err != nil {
				b.Fatal(err)
			}
			n.Kick()
		})
		c.Run(0)
	}
	_, _, _, _, instrs = c.Node(0).Scheduler().Stats()
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkQuantum measures the host cost of one scheduler quantum at
// the default quantum of 64 instructions: 8 compute threads on one node,
// so every quantum is a pump event, a context switch to another thread
// and 64 interpreted instructions. One op is one quantum. It also
// reports the misses of the threads' and the space's TLBs per quantum.
// BenchmarkInterpreter runs 10,000-instruction quanta and so hides this
// per-quantum cost.
func BenchmarkQuantum(b *testing.B) {
	c := pm2.New(pm2.Config{Nodes: 1}, progs.NewImage())
	entry, _ := c.Image().EntryOf("worker")
	c.At(0, func(n *pm2.Node) {
		for i := 0; i < 8; i++ {
			if _, err := n.Scheduler().Create(entry, 1<<30); err != nil {
				b.Fatal(err)
			}
		}
		n.Kick()
	})
	c.Run(1024) // every thread started and the free lists warm
	sched, sp := c.Node(0).Scheduler(), c.Node(0).Space()
	_, _, _, d0, _ := sched.Stats()
	tlb0 := sched.TLBMisses() + sp.TLBMisses()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	c.Run(uint64(b.N))
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if _, _, _, d1, _ := sched.Stats(); d1-d0 != uint64(b.N) {
		b.Fatalf("%d events ran %d quanta", b.N, d1-d0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/quantum")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/quantum")
	b.ReportMetric(float64(sched.TLBMisses()+sp.TLBMisses()-tlb0)/float64(b.N), "tlb-misses/quantum")
}
