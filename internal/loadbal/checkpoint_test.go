package loadbal

import (
	"testing"

	"repro/internal/pm2"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// buildImbalanced returns a 4-node cluster with all work piled on node
// 0 and a 2 ms balancer attached — mid-run there is always a round
// pending, which is what a checkpoint has to capture.
func buildImbalanced(t *testing.T) (*pm2.Cluster, *Balancer) {
	t.Helper()
	c := pm2.New(pm2.Config{Nodes: 4}, progs.NewImage())
	for i := 0; i < 12; i++ {
		c.SpawnSync(0, "worker", 60_000)
	}
	b := Attach(c, Config{
		Period:           2 * simtime.Millisecond,
		Threshold:        2,
		MaxMovesPerRound: 2,
	})
	return c, b
}

// TestCheckpointThroughBalancer is the balancer-composition property:
// a checkpoint taken while a balancer is attached and mid-cadence
// succeeds (instead of failing the quiesce budget), carries the round
// state through its pm2ckpt image, and a restored cluster with the
// balancer reattached from that state continues byte-identically to
// resuming the original in place — including the balancer's own
// Rounds/Moves accounting.
func TestCheckpointThroughBalancer(t *testing.T) {
	c, b := buildImbalanced(t)
	c.RunFor(5 * simtime.Millisecond)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint through an attached balancer: %v", err)
	}
	if ck.Balancer == nil {
		t.Fatal("checkpoint carries no balancer section")
	}
	if ck.Balancer.Rounds == 0 {
		t.Fatal("captured balancer never ran a round before the checkpoint")
	}
	if ck.Balancer.NextRoundAt == 0 || ck.Balancer.NextRoundAt > ck.Now {
		t.Fatalf("captured NextRoundAt = %v, want a pending slot at or before the quiescent instant %v",
			ck.Balancer.NextRoundAt, ck.Now)
	}
	data := ck.Encode()

	// In-place continuation: Resume restarts the paused balancer.
	c.Resume()
	c.Run(0)
	resumed := c.Trace().String()

	// Restored continuation: decode, restore, reattach from the image.
	ck2, err := pm2.DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ck2.Balancer == nil || *ck2.Balancer != *ck.Balancer {
		t.Fatalf("balancer state did not round-trip: %+v vs %+v", ck2.Balancer, ck.Balancer)
	}
	rc, err := pm2.RestoreCluster(pm2.Config{Nodes: 4}, progs.NewImage(), ck2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	rb := AttachFromCheckpoint(rc, Config{}, *ck2.Balancer)
	rc.Run(0)
	if got := rc.Trace().String(); got != resumed {
		t.Fatalf("restored continuation diverges from in-place resume:\n--- resumed\n%s\n--- restored\n%s", resumed, got)
	}
	if rb.Rounds() != b.Rounds() || rb.Moves() != b.Moves() {
		t.Fatalf("balancer accounting diverged: restored rounds=%d moves=%d, resumed rounds=%d moves=%d",
			rb.Rounds(), rb.Moves(), b.Rounds(), b.Moves())
	}
	if rb.Rounds() <= ck.Balancer.Rounds {
		t.Fatalf("restored balancer never resumed its cadence (rounds stuck at %d)", rb.Rounds())
	}
	if err := rc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDrainedBalancerNotCarried: a balancer that already
// drained (stopped rescheduling on an idle cluster) contributes no round
// state, so neither the capture nor its decoded image carries one, and
// a restore attaches none.
func TestCheckpointDrainedBalancerNotCarried(t *testing.T) {
	c := pm2.New(pm2.Config{Nodes: 2}, progs.NewImage())
	c.SpawnSync(0, "worker", 5_000)
	Attach(c, Config{Period: 2 * simtime.Millisecond})
	c.Run(0) // workload finishes, balancer sees an empty cluster and drains
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint after drain: %v", err)
	}
	if ck.Balancer != nil {
		t.Fatalf("drained balancer still captured: %+v", ck.Balancer)
	}
	decoded, err := pm2.DecodeCheckpoint(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Balancer != nil {
		t.Fatalf("decoded image carries a balancer: %+v", decoded.Balancer)
	}
}
