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
// cross the reclaimed range succeeds — under both arbiters. The tree
// gather runs the post-failover negotiation through its flat delta
// fallback. The deprecated Config.Workers is set to 1 and 4 and the
// traces must be byte-identical: the kernel ignores the field, which is
// what the pm2perf ring workload that still sets it relies on.
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

// TestLockTableSurvivesItsManager: node 2 negotiates 3 slots, whose run
// lies in shard 10, managed by node 1 of 3, and node 1 crashes at every
// instant of the window in which node 2 holds the shard or is about to
// unlock it. Declaring node 1 dead reroutes shard 10 to node 2; the
// holder must still unlock the key it holds, wherever its table now
// lives, and the dead rank must keep no table. Under both arbiters the
// negotiation succeeds and the cluster ends consistent and drained.
func TestLockTableSurvivesItsManager(t *testing.T) {
	for _, arb := range []ArbiterMode{ArbiterGlobal, ArbiterSharded} {
		for at := 360; at <= 400; at += 5 {
			c := New(Config{Nodes: 3, Arbiter: arb, RPCTimeout: -1,
				Faults: mustPlan(t, fmt.Sprintf("crash:1@%d", at))}, progs.NewImage())
			tickHeartbeats(c, 20*simtime.Microsecond, 200)
			ok := false
			c.At(2, func(n *Node) { n.negotiate(3, func(r bool) { ok = r }) })
			c.Run(0)
			if !c.NodeDown(1) {
				t.Fatalf("%s, crash@%d: node 1 never declared dead", arb, at)
			}
			if !ok {
				t.Errorf("%s, crash@%d: negotiation failed", arb, at)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Errorf("%s, crash@%d: %v", arb, at, err)
			}
			if err := c.CheckDrained(); err != nil {
				t.Errorf("%s, crash@%d: %v", arb, at, err)
			}
		}
	}
}

// TestLockHeldByCrashedRankIsReleased: nodes 1 and 2 each negotiate 3
// slots, and node 1 crashes at every instant of the window in which it
// holds a key at a live manager (a shard at node 2, or the section at
// node 0) or waits for one. The crashed holder's unlock is dropped at
// the wire, so declaring it dead must release every key it holds at a
// live manager, and never hand a key to a waiter that rank queued.
// Under both arbiters node 2's negotiation succeeds and the cluster
// ends consistent and drained.
func TestLockHeldByCrashedRankIsReleased(t *testing.T) {
	for _, arb := range []ArbiterMode{ArbiterGlobal, ArbiterSharded} {
		for at := 360; at <= 410; at += 5 {
			c := New(Config{Nodes: 3, Arbiter: arb, RPCTimeout: -1,
				Faults: mustPlan(t, fmt.Sprintf("crash:1@%d", at))}, progs.NewImage())
			tickHeartbeats(c, 20*simtime.Microsecond, 200)
			ok := false
			c.At(1, func(n *Node) { n.negotiate(3, func(bool) {}) })
			c.At(2, func(n *Node) { n.negotiate(3, func(r bool) { ok = r }) })
			c.Run(0)
			if !c.NodeDown(1) {
				t.Fatalf("%s, crash@%d: node 1 never declared dead", arb, at)
			}
			if !ok {
				t.Errorf("%s, crash@%d: node 2's negotiation failed", arb, at)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Errorf("%s, crash@%d: %v", arb, at, err)
			}
			if err := c.CheckDrained(); err != nil {
				t.Errorf("%s, crash@%d: %v", arb, at, err)
			}
		}
	}
}

// TestReleaseSkipsDeadWaiter: node 1 queues for the section behind
// node 2 and crashes. Once node 1 is declared dead, node 2's unlock must
// pass over it — a grant to node 1 would be dropped at the wire and
// leave the section held by no one — and node 0 is granted it next.
func TestReleaseSkipsDeadWaiter(t *testing.T) {
	c := New(Config{Nodes: 3, RPCTimeout: -1, Faults: mustPlan(t, "crash:1@100")}, progs.NewImage())
	tickHeartbeats(c, 20*simtime.Microsecond, 20)
	var held2, held1 []int
	c.At(2, func(n *Node) {
		n.lockEach([]int{sectionKey}, &held2, func() {}, func() { t.Error("node 2: section lock failed") })
	})
	c.Engine().At(20*simtime.Microsecond, func() {
		c.At(1, func(n *Node) {
			n.lockEach([]int{sectionKey}, &held1, func() { t.Error("node 1 granted the section") }, func() {})
		})
	})
	granted := false
	c.Engine().At(600*simtime.Microsecond, func() {
		if !c.NodeDown(1) {
			t.Fatal("node 1 not declared dead by 600 µs")
		}
		c.At(2, func(n *Node) { n.unlockAll(&held2) })
		c.At(0, func(n *Node) {
			var mine []int
			n.lockEach([]int{sectionKey}, &mine, func() {
				granted = true
				n.unlockAll(&mine)
			}, func() { t.Error("node 0: section lock failed") })
		})
	})
	c.Run(0)
	if !granted {
		t.Fatal("node 0 never granted the section")
	}
	if err := c.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleUnlockFromDeadHolderIsDropped: on 4 nodes, node 1 holds a
// key (the section at node 0, or shard 3 at node 3), node 2 queues for
// it, and node 1 sends its unlock at 250 µs, just before it crashes at
// 300 µs. The unlock reaches the manager only after node 1 is declared
// dead at 340 µs: a partition holds it until 2,000 µs, or a slow window
// stretches its 9 µs wire time 200-fold. Declaring node 1 dead hands the
// key to node 2, so the late unlock must not release it again: the
// fourth node, asking at 4,500 µs, is granted the key only once node 2
// unlocks it at 5,000 µs.
func TestStaleUnlockFromDeadHolderIsDropped(t *testing.T) {
	for _, key := range []int{sectionKey, 3} {
		mgr, asker := 0, 3
		if key != sectionKey {
			mgr, asker = 3, 0
		}
		for _, delay := range []string{fmt.Sprintf("partition:1-%d@200..2000", mgr), "slow:1x200@240..260"} {
			plan := "crash:1@300;" + delay
			c := New(Config{Nodes: 4, Faults: mustPlan(t, plan)}, progs.NewImage())
			if got := c.lockManager(key); got != mgr {
				t.Fatalf("key %d managed by node %d, want %d", key, got, mgr)
			}
			tickHeartbeats(c, 20*simtime.Microsecond, 20)
			us := func(v int) simtime.Time { return simtime.Time(v) * simtime.Microsecond }
			var held1, held2, held3 []int
			var unlocked2, askerGranted simtime.Time
			c.At(1, func(n *Node) { n.lockEach([]int{key}, &held1, func() {}, func() {}) })
			c.Engine().At(us(20), func() {
				c.At(2, func(n *Node) {
					n.lockEach([]int{key}, &held2, func() {
						n.actor.PostAfter(us(5000)-c.Engine().Now(), func() {
							unlocked2 = c.Engine().Now()
							n.unlockAll(&held2)
						})
					}, func() { t.Error("node 2: lock failed") })
				})
			})
			c.Engine().At(us(250), func() {
				if len(held1) != 1 {
					t.Errorf("key %d, %s: node 1 holds %v at 250 µs", key, delay, held1)
				}
				c.At(1, func(n *Node) { n.unlockAll(&held1) })
			})
			c.Engine().At(us(4500), func() {
				c.At(asker, func(n *Node) {
					n.lockEach([]int{key}, &held3, func() {
						askerGranted = c.Engine().Now()
						n.unlockAll(&held3)
					}, func() { t.Error("asker: lock failed") })
				})
			})
			c.Run(0)
			if !c.NodeDown(1) {
				t.Fatalf("key %d, %s: node 1 never declared dead", key, delay)
			}
			if unlocked2 == 0 || askerGranted < unlocked2 {
				t.Errorf("key %d, %s: node %d granted at %v, node 2 unlocked at %v",
					key, delay, asker, askerGranted, unlocked2)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Errorf("key %d, %s: %v", key, delay, err)
			}
			if err := c.CheckDrained(); err != nil {
				t.Errorf("key %d, %s: %v", key, delay, err)
			}
		}
	}
}

// TestLateLockRequestFromDeadRankTakesNothing: node 1 asks node 0 for
// the section at 250 µs, crashes at 300 µs and is declared dead at
// 340 µs, and a partition holds its request until 2,000 µs. The free
// section must not be entered as held by the dead rank, which could
// never unlock it: node 3, asking at 2,500 µs, is granted it, and the
// cluster ends drained.
func TestLateLockRequestFromDeadRankTakesNothing(t *testing.T) {
	c := New(Config{Nodes: 4, Faults: mustPlan(t, "crash:1@300;partition:0-1@200..2000")}, progs.NewImage())
	tickHeartbeats(c, 20*simtime.Microsecond, 20)
	var held1, held3 []int
	c.Engine().At(250*simtime.Microsecond, func() {
		c.At(1, func(n *Node) {
			n.lockEach([]int{sectionKey}, &held1, func() { t.Error("node 1 granted the section") }, func() {})
		})
	})
	granted := false
	c.Engine().At(2500*simtime.Microsecond, func() {
		c.At(3, func(n *Node) {
			n.lockEach([]int{sectionKey}, &held3, func() {
				granted = true
				n.unlockAll(&held3)
			}, func() { t.Error("node 3: section lock failed") })
		})
	})
	c.Run(0)
	if !c.NodeDown(1) {
		t.Fatal("node 1 never declared dead")
	}
	if !granted {
		t.Error("node 3 never granted the section")
	}
	if err := c.CheckDrained(); err != nil {
		t.Error(err)
	}
}

// TestReroutedLockKeepsItsHolder: node 2 holds shard 10, granted by its
// manager, node 1, when node 1 crashes. Once node 1 is declared dead the
// shard is managed by node 2 itself, and node 0 asks for it there. Node
// 0 must not be granted the shard before node 2 unlocks it.
func TestReroutedLockKeepsItsHolder(t *testing.T) {
	const shard = 10
	c := New(Config{Nodes: 3, Arbiter: ArbiterSharded, RPCTimeout: -1,
		Faults: mustPlan(t, "crash:1@100")}, progs.NewImage())
	if m := c.lockManager(shard); m != 1 {
		t.Fatalf("shard %d managed by node %d, want node 1", shard, m)
	}
	tickHeartbeats(c, 20*simtime.Microsecond, 20)
	var held []int
	c.At(2, func(n *Node) {
		n.lockEach([]int{shard}, &held, func() {}, func() { t.Error("node 2: shard lock failed") })
	})
	var unlockedAt, grantedAt simtime.Time
	c.Engine().At(400*simtime.Microsecond, func() {
		if !c.NodeDown(1) || c.lockManager(shard) != 2 {
			t.Fatalf("at 400 µs: node 1 down=%v, shard %d managed by %d; want node 2", c.NodeDown(1), shard, c.lockManager(shard))
		}
		c.At(0, func(n *Node) {
			var mine []int
			n.lockEach([]int{shard}, &mine, func() {
				grantedAt = n.actor.Now()
				n.unlockAll(&mine)
			}, func() { t.Error("node 0: shard lock failed") })
		})
	})
	c.Engine().At(600*simtime.Microsecond, func() {
		c.At(2, func(n *Node) {
			unlockedAt = n.actor.Now()
			n.unlockAll(&held)
		})
	})
	c.Run(0)
	if grantedAt == 0 || grantedAt < unlockedAt {
		t.Fatalf("node 0 granted shard %d at %v, node 2 unlocked it at %v", shard, grantedAt, unlockedAt)
	}
	if err := c.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}
