package loadbal

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/pm2"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// TestBalancerDetectsNodeDeath exercises the piggybacked failure
// detector end to end: the balancer's periodic round is the heartbeat,
// so a crashed node's lease expires after two silent rounds, the
// cluster evacuates its threads, and the balancer keeps redistributing
// the survivors' load afterwards.
func TestBalancerDetectsNodeDeath(t *testing.T) {
	plan, err := fault.Parse("crash:2@5000")
	if err != nil {
		t.Fatal(err)
	}
	c := pm2.New(pm2.Config{Nodes: 4, Faults: plan}, progs.NewImage())
	for i := 0; i < 8; i++ {
		c.Spawn(i%4, "worker", 30_000)
	}
	Attach(c, Config{
		Period: 2 * simtime.Millisecond,
		// Reports must age out during the detection window, or the
		// policy would keep proposing the dead node as a destination.
		StaleAfter: 4 * simtime.Millisecond,
	})
	c.Run(0)

	if !c.NodeDown(2) {
		t.Fatal("balancer heartbeats never declared node 2 dead")
	}
	s := c.Stats()
	if s.Evacuations != 1 || s.EvacuatedThreads == 0 {
		t.Fatalf("evacuations = %d, evacuated threads = %d, want 1 and > 0",
			s.Evacuations, s.EvacuatedThreads)
	}
	// Crash at 5 ms, rounds at 2/4/6/8 ms: misses accrue at 6 and 8 ms,
	// so detection costs at most two periods.
	if len(s.DetectionLatencies) != 1 || s.DetectionLatencies[0] > 4*simtime.Millisecond {
		t.Fatalf("detection latencies = %v, want one entry <= 4ms", s.DetectionLatencies)
	}
	finished := 0
	for _, l := range c.Trace().Lines() {
		if strings.Contains(l, "finished on node") {
			finished++
		}
	}
	if finished != 8 {
		t.Fatalf("finished = %d, want 8:\n%s", finished, c.Trace().String())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
