package pm2

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// mustPlan parses a fault-plan spec or fails the test.
func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	return p
}

// tickHeartbeats schedules periodic failure-detection rounds, standing in
// for an attached balancer (loadbal's round calls HeartbeatTick; its own
// integration test lives in internal/loadbal).
func tickHeartbeats(c *Cluster, period simtime.Time, rounds int) {
	for i := 1; i <= rounds; i++ {
		c.Engine().At(simtime.Time(i)*period, c.HeartbeatTick)
	}
}

// TestFailoverKillOneOf16 is the headline fault-tolerance scenario: a
// 16-node cluster running 32 workers loses node 3 mid-run. The lease
// expires after two missed heartbeats, every thread resident on the dead
// node is evacuated with zero TID loss, the dead rank's slots are
// reclaimed by the survivors, and a post-failover negotiation that must
// cross the reclaimed range succeeds — under both arbiters, with traces
// byte-identical between the serial and parallel kernels. The tree
// gather runs the post-failover negotiation through its flat delta
// fallback.
func TestFailoverKillOneOf16(t *testing.T) {
	const (
		nodes   = 16
		threads = 32
		crashUs = 3000
		tick    = simtime.Millisecond
	)
	gathers := []GatherMode{GatherSequential, GatherTree}
	for _, arb := range []ArbiterMode{ArbiterGlobal, ArbiterSharded} {
		traces := map[GatherMode]map[int]string{}
		for _, gather := range gathers {
			traces[gather] = map[int]string{}
		}
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("arbiter=%v/workers=%d", arb, workers)
			t.Run(name, func(t *testing.T) {
				for _, gather := range gathers {
					t.Run(fmt.Sprintf("gather=%v", gather), func(t *testing.T) {
						cfg := Config{
							Nodes:   nodes,
							Gather:  gather,
							Arbiter: arb,
							Workers: workers,
							Faults:  mustPlan(t, fmt.Sprintf("crash:3@%d", crashUs)),
						}
						c := New(cfg, progs.NewImage())
						for i := 0; i < threads; i++ {
							c.Spawn(i%nodes, "worker", 20_000)
						}
						tickHeartbeats(c, tick, 40)

						// Census of the doomed node just before the crash.
						var doomed []uint32
						c.Engine().At(crashUs*simtime.Microsecond-1, func() {
							for _, th := range c.Node(3).Scheduler().Snapshot() {
								doomed = append(doomed, th.TID)
							}
						})
						c.Run(0)

						if len(doomed) == 0 {
							t.Fatal("workload finished before the crash; nothing was evacuated")
						}
						if !c.NodeDown(3) {
							t.Fatal("node 3 never declared dead")
						}
						s := c.Stats()
						if s.Evacuations != 1 || s.EvacuatedThreads != len(doomed) {
							t.Fatalf("evacuations = %d, evacuated threads = %d, want 1 and %d",
								s.Evacuations, s.EvacuatedThreads, len(doomed))
						}
						if len(s.EvacuationLatencies) != len(doomed) {
							t.Fatalf("evacuation latencies = %d, want %d", len(s.EvacuationLatencies), len(doomed))
						}
						// Crash at 3 ms, ticks every 1 ms: miss one at 3 ms, miss
						// two — the declaration — at 4 ms.
						if len(s.DetectionLatencies) != 1 || s.DetectionLatencies[0] != tick {
							t.Fatalf("detection latencies = %v, want [%v]", s.DetectionLatencies, tick)
						}
						if s.ReclaimedSlots == 0 {
							t.Fatal("no slots reclaimed from the dead rank")
						}
						if got := c.Node(3).Slots().Bitmap().Count(); got != 0 {
							t.Fatalf("dead node still owns %d free slots", got)
						}
						// Zero lost TIDs: every worker ran to completion somewhere.
						finished := 0
						for _, line := range c.Trace().Lines() {
							if strings.Contains(line, "finished on node") {
								finished++
								if strings.HasSuffix(line, "node 3") {
									// Finishing on node 3 before the crash is fine;
									// nothing may run there after it.
									continue
								}
							}
						}
						if finished != threads {
							t.Fatalf("%d workers finished, want %d:\n%s", finished, threads, c.Trace().String())
						}
						if err := c.CheckInvariants(); err != nil {
							t.Fatal(err)
						}

						// A negotiation crossing the reclaimed range: round-robin
						// distribution interleaves ranks slot by slot, so any
						// contiguous run of 16+ free slots includes former node-3
						// words — now version-bumped property of the survivors.
						ok := false
						c.At(0, func(n *Node) { n.Negotiate(24, func(r bool) { ok = r }) })
						c.Run(0)
						if !ok {
							t.Fatal("post-failover negotiation across the reclaimed range failed")
						}
						if err := c.CheckInvariants(); err != nil {
							t.Fatalf("after reclaimed-range purchase: %v", err)
						}
						traces[gather][workers] = c.Trace().String()
					})
				}
			})
			if t.Failed() {
				return
			}
		}
		for _, gather := range gathers {
			if traces[gather][1] != traces[gather][4] {
				t.Fatalf("arbiter %v, gather %v: failover trace differs between workers 1 and 4", arb, gather)
			}
		}
	}
}

const sleeperSrc = `
.program sleeper
.string fmt_awake "sleeper woke on node %d\n"
main:
    loadi r1, 50000
    callb sleep
    callb self_node
    mov   r2, r0
    loadi r1, fmt_awake
    callb printf
    halt
`

// TestFailoverEvacuatesBlockedSleeper pins the fail-stop semantics for
// blocked threads: a thread asleep on the dying node is evacuated like
// any resident and thaws runnable on its survivor — the local timer that
// would have woken it died with the node, and the armed wake must be
// dropped as stale rather than corrupt the dead scheduler's accounting.
func TestFailoverEvacuatesBlockedSleeper(t *testing.T) {
	im := progs.NewImage()
	asm.MustAssemble(im, sleeperSrc)
	cfg := Config{
		Nodes:  4,
		Faults: mustPlan(t, "crash:1@1000"),
	}
	c := New(cfg, im)
	c.Spawn(1, "sleeper", 0)
	tickHeartbeats(c, simtime.Millisecond, 10)
	c.Run(0)

	if !c.NodeDown(1) {
		t.Fatal("node 1 never declared dead")
	}
	s := c.Stats()
	if s.EvacuatedThreads != 1 {
		t.Fatalf("evacuated threads = %d, want 1", s.EvacuatedThreads)
	}
	want := "[node0] sleeper woke on node 0"
	found := false
	for _, line := range c.Trace().Lines() {
		if line == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("sleeper never resumed on its survivor:\n%s", c.Trace().String())
	}
	// CheckInvariants runs every scheduler's counter self-check: a
	// mishandled blocked-count or a stale wake that slipped through
	// shows up here.
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPlanConfigValidation covers the configurations a fault plan
// refuses to compose with.
func TestFaultPlanConfigValidation(t *testing.T) {
	plan := mustPlan(t, "crash:1@1000")
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"relocation baseline", Config{Nodes: 4, Policy: PolicyRelocate, Faults: plan}, "iso-address"},
		{"single node", Config{Nodes: 1, Faults: mustPlan(t, "slow:0x2@0..1000")}, "two nodes"},
		{"negative lease", Config{Nodes: 4, HeartbeatMisses: -1}, "heartbeat"},
		{"rank out of range", Config{Nodes: 2, Faults: mustPlan(t, "crash:7@1000")}, "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewChecked(tc.cfg, progs.NewImage()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}
