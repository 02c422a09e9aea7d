package scenario

import (
	"strings"
	"testing"

	ipm2 "repro/internal/pm2"
	"repro/internal/scenario/serve"
	"repro/internal/simtime"
)

// captureCheckpoint stages a 4-node cluster over the harness image,
// runs it into the middle of a migration-bearing workload and captures
// it — the fixture every replay-from-checkpoint test continues.
func captureCheckpoint(t *testing.T) *ipm2.Checkpoint {
	t.Helper()
	cl := ipm2.New(ipm2.Config{Nodes: 4}, Image())
	cl.Spawn(0, "p4", 1000)
	cl.RunFor(500 * simtime.Microsecond)
	ck, err := cl.Checkpoint()
	if err != nil {
		t.Fatalf("capturing fixture checkpoint: %v", err)
	}
	return ck
}

// TestReplayFromCheckpoint pins the checkpoint-bound replay path: a
// serve request stream continued from a capture verifies, and two
// replays of the same (stream, checkpoint) pair produce byte-identical
// canonical traces.
func TestReplayFromCheckpoint(t *testing.T) {
	ck := captureCheckpoint(t)
	sp := serve.DeriveSpec(7, 4)
	reqs, err := sp.Synthesize(4)
	if err != nil {
		t.Fatalf("synthesizing request stream: %v", err)
	}
	spec := Spec{Nodes: 4, Seed: sp.Seed}

	first, err := ReplayFromCheckpoint(spec, reqs, ck)
	if err != nil {
		t.Fatalf("replay from checkpoint: %v", err)
	}
	if err := first.Verify(); err != nil {
		t.Fatal(err)
	}
	again, err := ReplayFromCheckpoint(spec, reqs, captureCheckpoint(t))
	if err != nil {
		t.Fatalf("second replay from checkpoint: %v", err)
	}
	if again.TraceString() != first.TraceString() {
		t.Fatal("replay trace diverged from first run")
	}
}

// TestReplayFromCheckpointRejectsMismatch pins the structural guard: a
// spec whose node count disagrees with the checkpoint is refused.
func TestReplayFromCheckpointRejectsMismatch(t *testing.T) {
	ck := captureCheckpoint(t)
	sp := serve.DeriveSpec(7, 8)
	reqs, err := sp.Synthesize(8)
	if err != nil {
		t.Fatalf("synthesizing request stream: %v", err)
	}
	if _, err := ReplayFromCheckpoint(Spec{Nodes: 8, Seed: sp.Seed}, reqs, ck); err == nil {
		t.Fatal("8-node replay of a 4-node checkpoint accepted")
	}
}

// TestReplayRejectsBadRequests: a request naming a program the harness
// image lacks, or a preferred node outside the cluster, is an error from
// Replay and ReplayFromCheckpoint before anything is scheduled, never a
// panic mid-run.
func TestReplayRejectsBadRequests(t *testing.T) {
	ck := captureCheckpoint(t)
	good := serve.Request{At: 10 * simtime.Microsecond, Cohort: "api", Prog: "worker", Arg: 100}
	cases := []struct {
		name string
		edit func(*serve.Request)
		want string
	}{
		{"unknown program", func(q *serve.Request) { q.Prog = "bogus" }, `unknown program "bogus"`},
		{"pref outside the cluster", func(q *serve.Request) { q.Pref = 99 }, "pref 99 outside 4 nodes"},
		{"negative pref", func(q *serve.Request) { q.Pref = -1 }, "pref -1 outside 4 nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			tc.edit(&bad)
			reqs := []serve.Request{good, bad}
			if _, err := Replay(Spec{Nodes: 4, Seed: 1}, reqs); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Replay: error = %v, want %q", err, tc.want)
			}
			if _, err := ReplayFromCheckpoint(Spec{Nodes: 4, Seed: 1}, reqs, ck); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ReplayFromCheckpoint: error = %v, want %q", err, tc.want)
			}
		})
	}
}
