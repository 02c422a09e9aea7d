package pm2

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/progs"
	"repro/internal/simtime"
)

// runCheckpointed runs the workload to checkpointAt, captures, resumes
// in place to completion, and returns the serialized checkpoint plus
// the full continuation trace.
func runCheckpointed(t *testing.T, cfg Config, checkpointAt simtime.Time) ([]byte, string) {
	t.Helper()
	c := New(cfg, progs.NewImage())
	for i := 0; i < 8; i++ {
		c.Spawn(i%cfg.Nodes, "worker", 20_000)
	}
	c.Engine().RunUntil(checkpointAt)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	data := ck.Encode()
	c.Resume()
	c.Run(0)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after in-place resume: %v", err)
	}
	return data, c.Trace().String()
}

// TestCheckpointRoundTrip is the headline property: checkpoint →
// encode → decode → restore → run yields a byte-identical trace to
// resuming the original cluster in place, under the serial and the
// parallel kernel, with the worker counts freely mixed between the
// capture side and the restore side.
func TestCheckpointRoundTrip(t *testing.T) {
	base := Config{Nodes: 4}
	const at = 3 * simtime.Millisecond
	traces := map[int]string{}
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		data, resumed := runCheckpointed(t, cfg, at)

		ck, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("workers=%d: decode: %v", workers, err)
		}
		if len(ck.NodeStates) != 4 {
			t.Fatalf("workers=%d: %d node states", workers, len(ck.NodeStates))
		}
		parked := 0
		for _, st := range ck.NodeStates {
			parked += len(st.Threads)
		}
		if parked == 0 {
			t.Fatalf("workers=%d: workload drained before the checkpoint; nothing captured", workers)
		}
		// Restore under the OTHER worker count: the checkpoint is
		// kernel-agnostic by design.
		rcfg := base
		rcfg.Workers = 5 - workers
		rc, err := RestoreCluster(rcfg, progs.NewImage(), ck)
		if err != nil {
			t.Fatalf("workers=%d: restore: %v", workers, err)
		}
		rc.Run(0)
		if err := rc.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: after restored run: %v", workers, err)
		}
		if got := rc.Trace().String(); got != resumed {
			t.Fatalf("workers=%d: restored continuation diverges from in-place resume:\n--- resumed\n%s\n--- restored\n%s", workers, resumed, got)
		}
		if finished := strings.Count(resumed, "finished on node"); finished != 8 {
			t.Fatalf("workers=%d: %d workers finished, want 8:\n%s", workers, finished, resumed)
		}
		traces[workers] = resumed
	}
	if traces[1] != traces[4] {
		t.Fatal("checkpointed trace differs between workers 1 and 4")
	}
}

// TestCheckpointBlockedSleeper pins the drain-forward behavior: a
// checkpoint requested while the only thread is asleep drains to the
// timer, parks the woken thread, and both continuations agree.
func TestCheckpointBlockedSleeper(t *testing.T) {
	im := progs.NewImage()
	asm.MustAssemble(im, sleeperSrc)
	cfg := Config{Nodes: 2}
	c := New(cfg, im)
	c.Spawn(1, "sleeper", 0)
	c.Engine().RunUntil(1 * simtime.Millisecond)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// The sleeper sleeps 50 ms; quiescence is only reachable after its
	// timer fires.
	if ck.Now < 50*simtime.Millisecond {
		t.Fatalf("quiescent instant %v predates the sleeper's timer", ck.Now)
	}
	c.Resume()
	c.Run(0)
	rc, err := RestoreCluster(cfg, im, ck)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	rc.Run(0)
	want := "[node1] sleeper woke on node 1"
	if got := rc.Trace().String(); got != c.Trace().String() || !strings.Contains(got, want) {
		t.Fatalf("restored sleeper diverged:\n--- resumed\n%s\n--- restored\n%s", c.Trace().String(), got)
	}
}

// TestRestoreWithFaultPlan covers the restart-and-refail composition:
// a restore accepts a fresh fault plan whose events all lie strictly
// after the checkpoint clock — and the plan is live, driving detection
// and evacuation on the restored cluster — while events at or before
// the clock are rejected.
func TestRestoreWithFaultPlan(t *testing.T) {
	data, _ := runCheckpointed(t, Config{Nodes: 2}, 2*simtime.Millisecond)
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}

	crash := func(at simtime.Time) *fault.Plan {
		return &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Node: 1, At: at}}}
	}
	t.Run("event before the clock", func(t *testing.T) {
		cfg := Config{Nodes: 2, Faults: crash(ck.Now - simtime.Millisecond)}
		if _, err := RestoreCluster(cfg, progs.NewImage(), ck); err == nil || !strings.Contains(err.Error(), "checkpoint clock") {
			t.Fatalf("error = %v, want checkpoint-clock rejection", err)
		}
	})
	t.Run("event at the clock", func(t *testing.T) {
		cfg := Config{Nodes: 2, Faults: crash(ck.Now)}
		if _, err := RestoreCluster(cfg, progs.NewImage(), ck); err == nil || !strings.Contains(err.Error(), "checkpoint clock") {
			t.Fatalf("error = %v, want checkpoint-clock rejection", err)
		}
	})
	t.Run("re-crash after restore", func(t *testing.T) {
		crashAt := ck.Now + 2*simtime.Millisecond
		cfg := Config{Nodes: 2, Faults: crash(crashAt)}
		rc, err := RestoreCluster(cfg, progs.NewImage(), ck)
		if err != nil {
			t.Fatalf("restore with future fault plan: %v", err)
		}
		// Heartbeat rounds after the restored clock, standing in for an
		// attached balancer (as tickHeartbeats does for fresh clusters).
		for i := 1; i <= 32; i++ {
			rc.Engine().At(ck.Now+simtime.Time(i)*simtime.Millisecond, rc.HeartbeatTick)
		}
		rc.Run(0)
		if !rc.NodeDown(1) {
			t.Fatal("restored cluster never declared the re-crashed node dead")
		}
		if ev := rc.Stats().Evacuations; ev != 1 {
			t.Fatalf("Evacuations = %d, want 1 after the restored crash", ev)
		}
		if err := rc.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointRejectsCorruption covers the digest seal: any byte
// flip, truncation or foreign header fails DecodeCheckpoint loudly.
func TestCheckpointRejectsCorruption(t *testing.T) {
	data, _ := runCheckpointed(t, Config{Nodes: 2}, 2*simtime.Millisecond)
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x40
	if _, err := DecodeCheckpoint(flip); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("byte flip: error = %v, want digest mismatch", err)
	}
	if _, err := DecodeCheckpoint(data[:len(data)*2/3]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if _, err := DecodeCheckpoint([]byte("pm2ckpt v9\ndigest 0000000000000000\n")); err == nil {
		t.Fatal("foreign version accepted")
	}
}

// TestCheckpointRefusals covers the states a checkpoint refuses to
// capture and the configurations a restore refuses to land on.
func TestCheckpointRefusals(t *testing.T) {
	t.Run("heap in use", func(t *testing.T) {
		c := New(Config{Nodes: 2}, progs.NewImage())
		c.Spawn(0, "heapjunk", 256)
		c.Run(0)
		if _, err := c.Checkpoint(); err == nil || !strings.Contains(err.Error(), "pm2_malloc") {
			t.Fatalf("error = %v, want heap refusal", err)
		}
	})
	t.Run("fault plan installed", func(t *testing.T) {
		c := New(Config{Nodes: 2, Faults: mustPlan(t, "crash:1@1000")}, progs.NewImage())
		if _, err := c.Checkpoint(); err == nil || !strings.Contains(err.Error(), "fault plan") {
			t.Fatalf("error = %v, want fault-plan refusal", err)
		}
	})
	t.Run("relocation policy", func(t *testing.T) {
		c := New(Config{Nodes: 2, Policy: PolicyRelocate}, progs.NewImage())
		if _, err := c.Checkpoint(); err == nil || !strings.Contains(err.Error(), "iso-address") {
			t.Fatalf("error = %v, want policy refusal", err)
		}
	})
	t.Run("config mismatch", func(t *testing.T) {
		data, _ := runCheckpointed(t, Config{Nodes: 2}, 2*simtime.Millisecond)
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreCluster(Config{Nodes: 4}, progs.NewImage(), ck); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("node-count mismatch: error = %v", err)
		}
		if _, err := RestoreCluster(Config{Nodes: 2, Arbiter: ArbiterSharded}, progs.NewImage(), ck); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("arbiter mismatch: error = %v", err)
		}
	})
}
