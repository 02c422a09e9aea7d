package pm2

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/progs"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	return New(cfg, progs.NewImage())
}

// TestFig1Trace reproduces Figure 1: the stack variable migrates with the
// thread and prints the same value on both nodes.
func TestFig1Trace(t *testing.T) {
	c := newCluster(t, Config{})
	c.Spawn(0, "p1", 0)
	c.Run(0)
	want := []string{
		"[node0] value = 1",
		"[node1] value = 1",
	}
	if i := trace.Equal(c.Trace().Lines(), want); i != -1 {
		t.Fatalf("trace differs at line %d:\n%s", i, c.Trace().String())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Migrations != 1 {
		t.Fatalf("migrations = %d", c.Stats().Migrations)
	}
}

// TestFig2TraceRelocate reproduces Figure 2: under the §2 relocation
// baseline an unregistered pointer to stack data breaks after migration.
func TestFig2TraceRelocate(t *testing.T) {
	c := newCluster(t, Config{Policy: PolicyRelocate})
	c.Spawn(0, "p2", 0)
	c.Run(0)
	want := []string{
		"[node0] value = 1",
		"Segmentation fault",
	}
	if i := trace.Equal(c.Trace().Lines(), want); i != -1 {
		t.Fatalf("trace differs at line %d:\n%s", i, c.Trace().String())
	}
}

// TestFig2UnderIsoIsTransparent shows the paper's point: the same program
// is migration-safe under iso-address allocation, with no registration.
func TestFig2UnderIsoIsTransparent(t *testing.T) {
	c := newCluster(t, Config{Policy: PolicyIso})
	c.Spawn(0, "p2", 0)
	c.Run(0)
	want := []string{
		"[node0] value = 1",
		"[node1] value = 1",
	}
	if i := trace.Equal(c.Trace().Lines(), want); i != -1 {
		t.Fatalf("trace differs at line %d:\n%s", i, c.Trace().String())
	}
}

// TestFig3TraceRegisteredPointers reproduces Figure 3: with explicit
// registration the relocation baseline patches the pointer and the program
// works.
func TestFig3TraceRegisteredPointers(t *testing.T) {
	c := newCluster(t, Config{Policy: PolicyRelocate})
	c.Spawn(0, "p2r", 0)
	c.Run(0)
	want := []string{
		"[node0] value = 1",
		"[node1] value = 1",
	}
	if i := trace.Equal(c.Trace().Lines(), want); i != -1 {
		t.Fatalf("trace differs at line %d:\n%s", i, c.Trace().String())
	}
}

// TestFig4Trace reproduces Figure 4: malloc'd data does not migrate, so the
// access after migration faults — under the iso policy too, which is why
// pm2_isomalloc exists.
func TestFig4Trace(t *testing.T) {
	c := newCluster(t, Config{})
	c.Spawn(0, "p3", 0)
	c.Run(0)
	want := []string{
		"[node0] value = 1",
		"Segmentation fault",
	}
	if i := trace.Equal(c.Trace().Lines(), want); i != -1 {
		t.Fatalf("trace differs at line %d:\n%s", i, c.Trace().String())
	}
}

// TestFig7Fig8Trace reproduces Figures 7–8: the isomalloc list is traversed
// across a migration; every pointer stays valid with no fixups.
func TestFig7Fig8Trace(t *testing.T) {
	const n = 120
	c := newCluster(t, Config{})
	c.Spawn(0, "p4", n)
	c.Run(0)
	lines := c.Trace().Lines()
	if len(lines) != 1+100+1+1+(n-100) {
		t.Fatalf("got %d lines:\n%s", len(lines), strings.Join(lines[:min(len(lines), 10)], "\n"))
	}
	if !strings.HasPrefix(lines[0], "[node0] I am thread ") {
		t.Fatalf("line 0 = %q", lines[0])
	}
	// Elements 0..99 print on node 0 with ascending odd values.
	for j := 0; j < 100; j++ {
		want := fmt.Sprintf("[node0] Element %d = %d", j, j*2+1)
		if lines[1+j] != want {
			t.Fatalf("line %d = %q, want %q", 1+j, lines[1+j], want)
		}
	}
	if lines[101] != "[node0] Initializing migration from node 0" {
		t.Fatalf("line 101 = %q", lines[101])
	}
	if lines[102] != "[node1] Arrived at node 1" {
		t.Fatalf("line 102 = %q", lines[102])
	}
	// The remaining elements print on node 1, same addresses, no fixup.
	for j := 100; j < n; j++ {
		want := fmt.Sprintf("[node1] Element %d = %d", j, j*2+1)
		if lines[103+(j-100)] != want {
			t.Fatalf("line %d = %q, want %q", 103+(j-100), lines[103+(j-100)], want)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFig9MallocCrash reproduces Figure 9: with malloc instead of
// pm2_isomalloc the traversal reads foreign heap garbage after migration
// and crashes. The destination heap is warmed with junk first, as a
// long-running process's heap would be.
func TestFig9MallocCrash(t *testing.T) {
	const n = 300
	c := newCluster(t, Config{})
	// Warm node 1's heap with stale data covering the list's addresses.
	c.Spawn(1, "heapjunk", 64*1024)
	c.Run(0)
	c.Spawn(0, "p4m", n)
	c.Run(0)
	lines := c.Trace().Lines()
	// Elements 0..99 fine on node 0, then the migration, then garbage
	// and a segmentation fault on node 1.
	if lines[len(lines)-1] != "Segmentation fault" {
		t.Fatalf("last line = %q", lines[len(lines)-1])
	}
	sawGarbage := false
	for _, l := range lines {
		if strings.HasPrefix(l, "[node1] Element 100 = ") &&
			!strings.HasPrefix(l, "[node1] Element 100 = 201") {
			sawGarbage = true
			// The junk pattern is the paper's own garbage value.
			if l != "[node1] Element 100 = -1797270816" {
				t.Errorf("garbage line = %q, want the 0x94DFD2E0 pattern", l)
			}
		}
		if strings.HasPrefix(l, "[node1] Element") && strings.Contains(l, "= 201") {
			t.Errorf("node 1 read a correct value through a dead heap: %q", l)
		}
	}
	if !sawGarbage {
		t.Fatalf("expected a garbage element before the fault:\n%s", strings.Join(lines[len(lines)-5:], "\n"))
	}
}

// TestPingPongMigrationUnder75us reproduces the paper's §5 headline: a
// thread with no static data migrates between two Myrinet nodes in less
// than 75 µs.
func TestPingPongMigrationUnder75us(t *testing.T) {
	const hops = 100
	c := newCluster(t, Config{})
	c.Spawn(0, "pingpong", hops)
	c.Run(0)
	st := c.Stats()
	if st.Migrations != hops {
		t.Fatalf("migrations = %d, want %d", st.Migrations, hops)
	}
	var sum simtime.Time
	var worst simtime.Time
	for _, l := range st.MigrationLatencies {
		sum += l
		if l > worst {
			worst = l
		}
	}
	avg := sum / simtime.Time(len(st.MigrationLatencies))
	t.Logf("migration latency: avg %v, worst %v", avg, worst)
	if avg >= 75*simtime.Microsecond {
		t.Errorf("average migration latency %v, paper reports < 75µs", avg)
	}
	if worst >= 100*simtime.Microsecond {
		t.Errorf("worst migration latency %v", worst)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNegotiationTriggeredByMultiSlotAlloc: with round-robin slots on two
// nodes, a multi-slot pm2_isomalloc cannot be local (no node owns two
// contiguous slots) and must negotiate — and still succeed transparently.
func TestNegotiationTriggeredByMultiSlotAlloc(t *testing.T) {
	c2 := newCluster(t, Config{RecordAllocs: true})
	c2.At(0, func(n *Node) {
		th, err := n.sched.Create(mustEntry(c2, "allocone"), 0)
		if err != nil {
			t.Error(err)
			return
		}
		th.Regs.R[1] = 100_000 // needs 2 contiguous slots
		th.Regs.R[2] = 0       // isomalloc
		n.kick()
	})
	c2.Run(0)
	st := c2.Stats()
	if st.Negotiations != 1 {
		t.Fatalf("negotiations = %d, want 1", st.Negotiations)
	}
	samples := c2.AllocSamples()
	if len(samples) != 1 || !samples[0].OK || !samples[0].Iso {
		t.Fatalf("samples = %+v", samples)
	}
	if err := c2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("negotiated alloc latency: %v (negotiation %v)", samples[0].Latency, st.NegotiationLatencies[0])
}

func mustEntry(c *Cluster, prog string) uint32 {
	e, ok := c.Image().EntryOf(prog)
	if !ok {
		panic("unknown program " + prog)
	}
	return e
}

// TestNegotiationCostScaling reproduces the §5 claim: negotiation costs
// about 255 µs on two nodes, plus about 165 µs per extra node (sequential
// bitmap gather).
func TestNegotiationCostScaling(t *testing.T) {
	costOf := func(nodes int) simtime.Time {
		c := New(Config{Nodes: nodes}, progs.NewImage())
		c.At(0, func(n *Node) {
			th, err := n.sched.Create(mustEntry(c, "allocone"), 0)
			if err != nil {
				t.Fatal(err)
			}
			th.Regs.R[1] = 100_000
			n.kick()
		})
		c.Run(0)
		st := c.Stats()
		if st.Negotiations != 1 {
			t.Fatalf("nodes=%d: negotiations = %d", nodes, st.Negotiations)
		}
		return st.NegotiationLatencies[0]
	}
	c2 := costOf(2)
	c3 := costOf(3)
	c4 := costOf(4)
	c8 := costOf(8)
	t.Logf("negotiation: 2 nodes %v, 3 nodes %v, 4 nodes %v, 8 nodes %v", c2, c3, c4, c8)
	t.Logf("per extra node: %v, %v", c3-c2, c4-c3)

	if c2 < 150*simtime.Microsecond || c2 > 400*simtime.Microsecond {
		t.Errorf("2-node negotiation %v, paper reports ≈255µs", c2)
	}
	d1, d2 := c3-c2, c4-c3
	for _, d := range []simtime.Time{d1, d2} {
		if d < 100*simtime.Microsecond || d > 250*simtime.Microsecond {
			t.Errorf("per-extra-node cost %v, paper reports ≈165µs", d)
		}
	}
	// Linear scaling: the 8-node extrapolation should hold.
	predicted := c2 + 6*d1
	diff := c8 - predicted
	if diff < 0 {
		diff = -diff
	}
	if diff > predicted/5 {
		t.Errorf("8-node negotiation %v deviates from linear prediction %v", c8, predicted)
	}
}

// TestWorkerMigratesWithItsData: the worker keeps a private isomalloc cell
// accessed through a pointer before and after a preemptive migration.
func TestWorkerPreemptiveMigration(t *testing.T) {
	c := newCluster(t, Config{})
	tid := c.SpawnSync(0, "worker", 10_000)
	// Let it run a little, then preempt it from "outside the
	// application" (the paper's generic load balancer scenario).
	c.RunFor(2 * simtime.Millisecond)
	c.At(0, func(n *Node) {
		if !n.sched.RequestMigration(tid, 1) {
			t.Error("thread not found for preemptive migration")
		}
	})
	c.Run(0)
	lines := c.Trace().Lines()
	if len(lines) != 1 || !strings.HasSuffix(lines[0], "finished on node 1") {
		t.Fatalf("trace = %q", lines)
	}
	if c.Stats().Migrations != 1 {
		t.Fatalf("migrations = %d", c.Stats().Migrations)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationIsVerbatimUnderWholeSlotPack: with whole-slot packing the
// migrated slots are byte-identical at the destination.
func TestWholeSlotPackMode(t *testing.T) {
	for _, mode := range []PackMode{PackUsed, PackWhole} {
		c := New(Config{Nodes: 2, Pack: mode}, progs.NewImage())
		c.Spawn(0, "p4", 150)
		c.Run(0)
		lines := c.Trace().Lines()
		if len(lines) != 153 {
			t.Fatalf("pack=%v: %d lines", mode, len(lines))
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("pack=%v: %v", mode, err)
		}
	}
}

// TestRemoteSpawn exercises the LRPC-style remote thread creation.
func TestRemoteSpawn(t *testing.T) {
	im := progs.NewImage()
	// A driver that spawns p1's entry on node 1 and waits for the ack.
	mustAsm(im, `
.program driver
.string fmt "spawned tid %x on node 1\n"
main:
    loadi r1, 1          ; dest node
    loadi r2, p1         ; entry address of program p1
    loadi r3, 0          ; arg
    callb spawn_remote
    mov   r2, r0
    loadi r1, fmt
    callb printf
    halt
`)
	c := New(Config{Nodes: 2}, im)
	c.Spawn(0, "driver", 0)
	c.Run(0)
	lines := c.Trace().Lines()
	// The remote thread is p1 starting on node 1: it prints value = 1 on
	// node 1, migrates to node 1 (no-op, already there), prints again.
	var sawSpawn, sawP1 int
	for _, l := range lines {
		if strings.HasPrefix(l, "[node0] spawned tid") {
			sawSpawn++
		}
		if l == "[node1] value = 1" {
			sawP1++
		}
	}
	if sawSpawn != 1 || sawP1 != 2 {
		t.Fatalf("trace:\n%s", c.Trace().String())
	}
}

func mustAsm(im *isa.Image, src string) { asm.MustAssemble(im, src) }

// TestDeterminism: identical configurations produce identical traces and
// identical final virtual times.
func TestDeterminism(t *testing.T) {
	run := func() (string, simtime.Time, Stats) {
		c := newCluster(t, Config{})
		c.Spawn(0, "p4", 150)
		c.Spawn(1, "worker", 5000)
		c.Spawn(0, "worker", 3000)
		c.Run(0)
		return c.Trace().String(), c.Now(), c.Stats()
	}
	t1, n1, s1 := run()
	t2, n2, s2 := run()
	if t1 != t2 {
		t.Fatal("traces differ between identical runs")
	}
	if n1 != n2 {
		t.Fatalf("final times differ: %v vs %v", n1, n2)
	}
	if s1.Migrations != s2.Migrations || s1.Net != s2.Net {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
}

// TestManyThreadsStress runs a batch of workers over 4 nodes with periodic
// preemptive migrations and validates the global invariants afterwards.
func TestManyThreadsStress(t *testing.T) {
	c := New(Config{Nodes: 4}, progs.NewImage())
	var tids []uint32
	for i := 0; i < 24; i++ {
		tids = append(tids, c.SpawnSync(i%4, "worker", 20_000))
	}
	// Preemptively bounce threads around while they run.
	for round := 0; round < 6; round++ {
		c.RunFor(3 * simtime.Millisecond)
		for i, tid := range tids {
			src := -1
			for nid := 0; nid < 4; nid++ {
				if _, ok := c.Node(nid).sched.Lookup(tid); ok {
					src = nid
					break
				}
			}
			if src < 0 {
				continue // finished or in flight
			}
			dst := (src + 1 + i%3) % 4
			if dst == src {
				continue
			}
			func(src int, tid uint32, dst int) {
				c.At(src, func(n *Node) { n.sched.RequestMigration(tid, dst) })
			}(src, tid, dst)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	c.Run(0)
	lines := c.Trace().Lines()
	if len(lines) != 24 {
		t.Fatalf("finished workers = %d, want 24:\n%s", len(lines), c.Trace().String())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Migrations == 0 {
		t.Fatal("stress produced no migrations")
	}
	// All slots eventually return to the nodes: every thread died, so
	// cluster-wide ownership must cover every slot exactly once.
	total := 0
	for i := 0; i < 4; i++ {
		total += c.Node(i).Slots().OwnedFree()
	}
	if total != slotCountForTest() {
		t.Fatalf("owned slots total %d", total)
	}
}

func slotCountForTest() int { return 57344 }

// TestConfigValidate pins the construction-time validation contract:
// structural errors are reported by NewChecked (and Validate) instead of
// a panic, and every gather builds.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Nodes: 0},
		{Nodes: -3},
		{Nodes: 4, PreBuySlots: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v): expected an error", cfg)
		}
		if _, err := NewChecked(cfg, progs.NewImage()); err == nil {
			t.Errorf("NewChecked(%+v): expected an error", cfg)
		}
	}
	for _, gather := range []GatherMode{GatherTree, GatherDelta} {
		if _, err := NewChecked(Config{Nodes: 4, Gather: gather}, progs.NewImage()); err != nil {
			t.Fatalf("%v gather: %v", gather, err)
		}
	}
}
