package pm2

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/progs"
	"repro/internal/simtime"
)

// TestPartitionSuspectRejoinNoEvacuation is the heartbeat
// false-positive property (two-stage detection): a live node
// partitioned away from the heartbeat vantage (rank 0) long enough to
// blow its lease must be suspected — routed around — but never
// declared dead or evacuated, and must rejoin cleanly once the
// partition heals. Declaration requires the node to actually be
// crashed; a partition alone, however long, is not evidence of death.
func TestPartitionSuspectRejoinNoEvacuation(t *testing.T) {
	const (
		nodes  = 4
		victim = 2
		tick   = simtime.Millisecond
	)
	spec := fmt.Sprintf("partition:%d-0@2000..6000;partition:%d-1@2000..6000;partition:%d-3@2000..6000",
		victim, victim, victim)
	cfg := Config{
		Nodes:      nodes,
		RPCTimeout: -1, // cost-model default: two-stage detection on
		Faults:     mustPlan(t, spec),
	}
	c := New(cfg, progs.NewImage())
	for i := 0; i < 2*nodes; i++ {
		c.Spawn(i%nodes, "worker", 20_000)
	}
	tickHeartbeats(c, tick, 40)
	c.Run(0)

	if c.NodeDown(victim) {
		t.Fatal("live partitioned node declared dead")
	}
	s := c.Stats()
	if s.Evacuations != 0 || s.EvacuatedThreads != 0 {
		t.Fatalf("evacuations = %d (threads %d), want 0 — the node is alive",
			s.Evacuations, s.EvacuatedThreads)
	}
	if s.Suspicions != 1 || s.Rejoins != 1 {
		t.Fatalf("suspicions = %d, rejoins = %d, want 1 and 1", s.Suspicions, s.Rejoins)
	}
	// Window 2000..6000 with 1 ms ticks and a 2-miss lease: misses
	// at 2 ms and 3 ms suspect the node at 3 ms; the first round
	// after the heal, 6 ms, clears it — 3 ms spent suspected.
	if len(s.RejoinLatencies) != 1 || s.RejoinLatencies[0] != 3*tick {
		t.Fatalf("rejoin latencies = %v, want [%v]", s.RejoinLatencies, 3*tick)
	}
	finished := 0
	for _, line := range c.Trace().Lines() {
		if strings.Contains(line, "finished on node") {
			finished++
		}
	}
	if finished != 2*nodes {
		t.Fatalf("%d workers finished, want %d:\n%s", finished, 2*nodes, c.Trace().String())
	}
	out := c.Trace().String()
	for _, want := range []string{
		fmt.Sprintf("[suspect] node %d suspected", victim),
		fmt.Sprintf("[rejoin] node %d rejoined", victim),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace lacks %q:\n%s", want, out)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGatherTimeoutAcrossPartition pins the deadline layer on the
// negotiation path for every gather strategy: a negotiation launched
// while one rank is unreachable must abandon that rank at its deadline
// (counting Stats.RPCTimeouts) and still succeed by planning around
// the missing peer's slots. The victim is rank 7 of 8 — the deepest
// leaf of the binomial combining tree (0 → 4 → 6 → 7) — so the tree
// case additionally exercises the depth-scaled relay deadlines: with a
// flat deadline the relays' own retry budgets would expire their
// parents first and one lost leaf would cascade into losing every
// subtree above it.
func TestGatherTimeoutAcrossPartition(t *testing.T) {
	const (
		nodes  = 8
		victim = 7
	)
	evs := make([]string, 0, nodes-1)
	for p := 0; p < nodes; p++ {
		if p != victim {
			evs = append(evs, fmt.Sprintf("partition:%d-%d@1000..20000", victim, p))
		}
	}
	spec := strings.Join(evs, ";")
	for _, gather := range []GatherMode{GatherSequential, GatherTree, GatherDelta} {
		t.Run(fmt.Sprintf("gather=%v", gather), func(t *testing.T) {
			cfg := Config{
				Nodes:      nodes,
				Gather:     gather,
				RPCTimeout: -1,
				Faults:     mustPlan(t, spec),
			}
			c := New(cfg, progs.NewImage())
			ok := false
			c.Engine().At(2000*simtime.Microsecond, func() {
				c.At(0, func(n *Node) { n.Negotiate(3, func(r bool) { ok = r }) })
			})
			c.Run(0)

			if !ok {
				t.Fatalf("negotiation failed with one rank unreachable:\n%s", c.Trace().String())
			}
			s := c.Stats()
			if s.RPCTimeouts == 0 {
				t.Fatal("no RPC timeouts — the deadline layer never fired against the partitioned rank")
			}
			if s.NegotiationFailures != 0 {
				t.Fatalf("negotiation failures = %d, want 0", s.NegotiationFailures)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSlowNodeTimesOutButLives pins the slow-fault interaction with
// both the deadline layer and failure detection: a drastically slowed
// node blows RPC deadlines (its replies arrive late and are dropped),
// yet it is never suspected — detection is reachability-based, and a
// slow link delivers heartbeats eventually — and never evacuated. The
// negotiation plans around the slots it could not read in time and
// still succeeds.
func TestSlowNodeTimesOutButLives(t *testing.T) {
	const (
		nodes  = 4
		victim = 3
	)
	cfg := Config{
		Nodes:      nodes,
		RPCTimeout: -1,
		Faults:     mustPlan(t, fmt.Sprintf("slow:%dx50@0..40000", victim)),
	}
	c := New(cfg, progs.NewImage())
	for i := 0; i < nodes; i++ {
		c.Spawn(i, "worker", 20_000)
	}
	tickHeartbeats(c, simtime.Millisecond, 40)
	ok := false
	c.Engine().At(1000*simtime.Microsecond, func() {
		c.At(0, func(n *Node) { n.Negotiate(3, func(r bool) { ok = r }) })
	})
	c.Run(0)

	if !ok {
		t.Fatalf("negotiation failed with one rank slowed:\n%s", c.Trace().String())
	}
	s := c.Stats()
	if s.RPCTimeouts == 0 {
		t.Fatal("no RPC timeouts — a 50x wire slowdown should blow the two-round-trip deadline")
	}
	if s.Suspicions != 0 || s.Evacuations != 0 {
		t.Fatalf("suspicions = %d, evacuations = %d, want 0 and 0 — slow is not dead",
			s.Suspicions, s.Evacuations)
	}
	if c.NodeDown(victim) {
		t.Fatal("slow node declared dead")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionRejoinDuringDeltaRound pins a rejoin that lands while the
// rejoiner's own delta round is in flight. Rejoin drops every cached
// view the rejoiner holds, but the round's requests were fixed when it
// started — "known, since version v" — and a timed-out request is
// re-sent as it was. Each reply must be judged against what its request
// asked, not against the now-empty view: a reply to a view dropped after
// its request was sent is discarded and the peer counts like a miss. The
// sweep starts node 2's negotiation every 100 µs across the whole
// partition window, under the sharded arbiter whose rounds run without
// the global lock.
func TestPartitionRejoinDuringDeltaRound(t *testing.T) {
	const (
		nodes  = 4
		victim = 2
		tick   = simtime.Millisecond
	)
	spec := fmt.Sprintf("partition:%d-0@30000..34000;partition:%d-1@30000..34000;partition:%d-3@30000..34000",
		victim, victim, victim)
	rejoins := 0
	for at := 30000; at <= 34000; at += 100 {
		c := New(Config{
			Nodes:      nodes,
			Gather:     GatherDelta,
			Arbiter:    ArbiterSharded,
			RPCTimeout: -1,
			Faults:     mustPlan(t, spec),
		}, progs.NewImage())
		for i := 0; i < 2; i++ {
			if !negotiateSync(t, c, victim, 2) {
				t.Fatalf("start %d µs: warm-up negotiation %d failed", at, i)
			}
		}
		tickHeartbeats(c, tick, 40)
		fired := false
		c.Engine().At(simtime.Time(at)*simtime.Microsecond, func() {
			c.At(victim, func(n *Node) {
				n.negotiate(2, func(bool) {
					fired = true
					checkDeltaOrCoherent(t, n)
				})
			})
		})
		c.Run(0)
		if !fired {
			t.Fatalf("start %d µs: the negotiation never completed", at)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("start %d µs: %v", at, err)
		}
		checkDeltaOrCoherent(t, c.Node(victim))
		if err := c.CheckDrained(); err != nil {
			t.Fatalf("start %d µs: %v", at, err)
		}
		rejoins += int(c.Stats().Rejoins)
	}
	if rejoins == 0 {
		t.Fatal("no rejoin in the sweep — the partition never blew the lease")
	}
}
