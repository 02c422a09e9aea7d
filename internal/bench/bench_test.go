package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/pm2"
)

// TestFig11Shape validates the qualitative content of Figure 11: both
// curves grow with size, isomalloc carries a roughly constant overhead for
// multi-slot requests (the negotiation), and that overhead becomes
// insignificant relative to the total for large blocks.
func TestFig11Shape(t *testing.T) {
	rows := Fig11([]uint32{4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}, 1, 2)
	for i := 1; i < len(rows); i++ {
		if rows[i].MallocMicros <= rows[i-1].MallocMicros {
			t.Errorf("malloc curve not increasing at %d bytes", rows[i].Size)
		}
		if rows[i].IsoMicros <= rows[i-1].IsoMicros {
			t.Errorf("isomalloc curve not increasing at %d bytes", rows[i].Size)
		}
	}
	// Single-slot requests: no negotiation, overhead small.
	small := rows[0]
	if small.Negotiated {
		t.Error("4 KB allocation should not negotiate")
	}
	// Multi-slot requests negotiate under 2-node round-robin.
	big := rows[len(rows)-1]
	if !big.Negotiated {
		t.Error("4 MB allocation must negotiate under round-robin")
	}
	// Overhead ≈ negotiation cost: a few hundred µs, roughly constant.
	for _, r := range rows[2:] {
		over := r.IsoMicros - r.MallocMicros
		if over < 100 || over > 900 {
			t.Errorf("size %d: isomalloc overhead %.1f µs out of expected negotiation range", r.Size, over)
		}
	}
	// And insignificant for large allocations (paper: "for large
	// allocations, this overhead is small and rather insignificant").
	if frac := (big.IsoMicros - big.MallocMicros) / big.MallocMicros; frac > 0.05 {
		t.Errorf("4 MB overhead fraction %.3f, want < 5%%", frac)
	}
}

func TestMigrationBench(t *testing.T) {
	r := MigrationPingPong(20, pm2.Config{})
	if r.AvgMicros <= 0 || r.AvgMicros >= 75 {
		t.Fatalf("avg migration %v µs", r.AvgMicros)
	}
	// Payload increases cost monotonically.
	r8k := MigrationWithPayload(10, 8<<10, pm2.Config{})
	r32k := MigrationWithPayload(10, 32<<10, pm2.Config{})
	if !(r.AvgMicros < r8k.AvgMicros && r8k.AvgMicros < r32k.AvgMicros) {
		t.Fatalf("payload scaling broken: %v %v %v", r.AvgMicros, r8k.AvgMicros, r32k.AvgMicros)
	}
}

// TestRelocationCrossover documents the honest comparison with the §2
// baseline: with zero registered pointers the relocation scheme is slightly
// cheaper per hop (the destination reuses a pooled local slot instead of
// mapping a dictated address), but its cost grows linearly with the number
// of pointers to patch while iso-address migration stays flat — and it is
// not transparent (Figure 2). The crossover sits at a few dozen pointers.
func TestRelocationCrossover(t *testing.T) {
	iso := MigrationPingPong(10, pm2.Config{})
	rel0 := RelocationPingPong(10, 0)
	rel64 := RelocationPingPong(10, 64)
	rel256 := RelocationPingPong(10, 256)
	if rel64.AvgMicros <= rel0.AvgMicros || rel256.AvgMicros <= rel64.AvgMicros {
		t.Errorf("registered pointers should add cost: %v %v %v",
			rel0.AvgMicros, rel64.AvgMicros, rel256.AvgMicros)
	}
	if rel256.AvgMicros <= iso.AvgMicros {
		t.Errorf("with 256 pointers relocation (%v µs) must exceed iso (%v µs)",
			rel256.AvgMicros, iso.AvgMicros)
	}
}

func TestNegotiationScalingBench(t *testing.T) {
	rows := NegotiationScaling([]int{2, 4})
	if rows[0].Micros <= 0 || rows[1].Micros <= rows[0].Micros {
		t.Fatalf("rows = %+v", rows)
	}
}

// TestWarmDeltaSlopeBelowBatched pins the delta gather's headline: on
// the steady-state measurement (second negotiation by the same
// initiator) its per-node slope must sit strictly below the full-map
// gathers' — sequential and tree, and so also below the batched round a
// cold delta gather reproduces — and its warm rounds must merge only
// delta bytes instead of a full map per peer.
func TestWarmDeltaSlopeBelowBatched(t *testing.T) {
	counts := []int{4, 8, 16}
	del := NegotiationScalingGatherWarm(counts, pm2.GatherDelta)
	delSlope := SlopeMicrosPerNode(del)
	last := len(counts) - 1
	for _, g := range []pm2.GatherMode{pm2.GatherSequential, pm2.GatherTree} {
		full := NegotiationScalingGatherWarm(counts, g)
		if slope := SlopeMicrosPerNode(full); delSlope <= 0 || delSlope >= slope {
			t.Fatalf("warm delta slope %.1f µs/node not strictly below %s %.1f", delSlope, g, slope)
		}
		// Both negotiations under a full-map gather merge a full map per
		// peer; delta pays full maps once (first contact) and words
		// after that.
		if want := uint64(2 * (counts[last] - 1) * layout.BitmapBytes); full[last].MergedBytes != want {
			t.Fatalf("%s merged %d bytes, want %d", g, full[last].MergedBytes, want)
		}
		if del[last].MergedBytes >= full[last].MergedBytes*3/4 {
			t.Fatalf("delta merged %d bytes, not well below %s's %d",
				del[last].MergedBytes, g, full[last].MergedBytes)
		}
	}
}

func TestThreadCreateBench(t *testing.T) {
	avg := ThreadCreate(50, pm2.Config{})
	if avg <= 0 || avg > 200 {
		t.Fatalf("thread create avg %v µs", avg)
	}
}

func TestDistributionAblation(t *testing.T) {
	rows := DistributionAblation([]core.Distribution{
		core.RoundRobin{}, core.BlockCyclic{K: 16}, core.Partition{},
	}, 3, 4)
	if rows[0].Negotiations == 0 {
		t.Error("round-robin must negotiate for multi-slot allocations")
	}
	if rows[1].Negotiations != 0 || rows[2].Negotiations != 0 {
		t.Errorf("block-cyclic/partition should stay local: %+v", rows)
	}
	if rows[0].TotalMicros <= rows[1].TotalMicros {
		t.Error("negotiations should cost virtual time")
	}
}

func TestSlotCacheAblation(t *testing.T) {
	rows := SlotCacheAblation(40)
	var with, without CacheRow
	for _, r := range rows {
		if r.Label == "cache=8" {
			with = r
		} else {
			without = r
		}
	}
	if with.CacheHits == 0 || without.CacheHits != 0 {
		t.Fatalf("cache hits: %+v", rows)
	}
	if with.Mmaps >= without.Mmaps {
		t.Fatalf("cache should save mmaps: %+v", rows)
	}
	if with.AvgCreateMicros >= without.AvgCreateMicros {
		t.Fatalf("cache should make creation cheaper: %+v", rows)
	}
}

func TestPackModeAblation(t *testing.T) {
	rows := PackModeAblation([]int{200, 2000})
	byKey := map[string]PackRow{}
	for _, r := range rows {
		byKey[r.Mode+string(rune('0'+r.Elements/200))] = r
	}
	used := byKey["used-blocks1"]
	whole := byKey["whole-slot1"]
	if used.BytesOnWire >= whole.BytesOnWire {
		t.Fatalf("used-blocks should ship fewer bytes: %+v vs %+v", used, whole)
	}
	if used.AvgMicros >= whole.AvgMicros {
		t.Fatalf("used-blocks should migrate faster: %+v vs %+v", used, whole)
	}
}

func TestRegisteredPointerAblation(t *testing.T) {
	rows := RegisteredPointerAblation([]int{0, 16, 64}, 6)
	for i := 1; i < len(rows); i++ {
		if rows[i].RelocMicros <= rows[i-1].RelocMicros {
			t.Errorf("relocation cost should grow with pointers: %+v", rows)
		}
		if rows[i].IsoMicros != rows[0].IsoMicros {
			t.Errorf("iso cost must not depend on pointer count: %+v", rows)
		}
	}
}

// TestContentionDecentralizedArbitersWin pins the point of the arbiter
// abstraction: at 16 nodes with 4+ concurrent initiators, the sharded
// and optimistic arbiters must beat the global lock's throughput — the
// global arbiter serializes every negotiation through node 0, the
// decentralized ones let disjoint purchases overlap.
func TestContentionDecentralizedArbitersWin(t *testing.T) {
	arbs := []pm2.ArbiterMode{pm2.ArbiterGlobal, pm2.ArbiterSharded, pm2.ArbiterOptimistic}
	for _, m := range []int{4, 8} {
		rows := Contention(16, m, arbs, pm2.GatherDelta)
		byName := map[string]ContentionRow{}
		for _, r := range rows {
			if r.Succeeded != m {
				t.Fatalf("%s at m=%d: %d of %d negotiations succeeded", r.Arbiter, m, r.Succeeded, m)
			}
			byName[r.Arbiter] = r
		}
		global := byName["global"]
		for _, name := range []string{"sharded", "optimistic"} {
			if got := byName[name]; got.ThroughputPerMs <= global.ThroughputPerMs {
				t.Errorf("m=%d: %s throughput %.2f/ms does not beat global %.2f/ms",
					m, name, got.ThroughputPerMs, global.ThroughputPerMs)
			}
		}
	}
}

// TestMigrationConvoySubLinear pins the convoy acceptance property: for
// every measured batch size the convoy's per-thread cost undercuts k
// individual messages, the advantage comes with one message instead of k,
// and per-thread cost keeps falling as the batch grows (the header,
// overhead and wire-latency terms amortize — sub-linear total cost).
func TestMigrationConvoySubLinear(t *testing.T) {
	rows := MigrationConvoy(64<<10, []int{2, 4, 8})
	for i, r := range rows {
		if r.PerThreadConvoyMicros >= r.PerThreadLegacyMicros {
			t.Errorf("k=%d: convoy %.1f µs/thread not below %.1f legacy",
				r.K, r.PerThreadConvoyMicros, r.PerThreadLegacyMicros)
		}
		if r.ConvoyMessages != 1 {
			t.Errorf("k=%d: convoy used %d messages, want 1", r.K, r.ConvoyMessages)
		}
		if r.LegacyMessages != uint64(r.K) {
			t.Errorf("k=%d: legacy used %d messages, want %d", r.K, r.LegacyMessages, r.K)
		}
		if i > 0 && r.PerThreadConvoyMicros >= rows[i-1].PerThreadConvoyMicros {
			t.Errorf("k=%d: per-thread convoy cost %.1f µs did not fall from %.1f at k=%d",
				r.K, r.PerThreadConvoyMicros, rows[i-1].PerThreadConvoyMicros, rows[i-1].K)
		}
	}
}

// TestZeroCopyMigrationBench checks the pipeline through the public bench
// entry points: the zero-copy ping-pong beats the copying path by the
// gated 30% at a one-slot payload, and the no-payload headline stays
// under the paper's 75 µs under both pipelines.
func TestZeroCopyMigrationBench(t *testing.T) {
	legacy := MigrationWithPayload(20, 64<<10, pm2.Config{})
	zc := MigrationWithPayload(20, 64<<10, pm2.Config{Convoy: true})
	if reduction := 1 - zc.AvgMicros/legacy.AvgMicros; reduction < 0.30 {
		t.Fatalf("zero-copy reduction %.1f%% below 30%% (legacy %.1f, zero-copy %.1f µs)",
			100*reduction, legacy.AvgMicros, zc.AvgMicros)
	}
	if r := MigrationPingPong(20, pm2.Config{Convoy: true}); r.AvgMicros <= 0 || r.AvgMicros >= 75 {
		t.Fatalf("zero-copy null migration %v µs", r.AvgMicros)
	}
}
