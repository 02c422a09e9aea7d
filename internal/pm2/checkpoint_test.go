package pm2

import (
	"bytes"
	"fmt"
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
// resuming the original cluster in place.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Nodes: 4}
	const at = 3 * simtime.Millisecond
	data, resumed := runCheckpointed(t, cfg, at)

	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(ck.NodeStates) != 4 {
		t.Fatalf("%d node states", len(ck.NodeStates))
	}
	parked := 0
	for _, st := range ck.NodeStates {
		parked += len(st.Threads)
	}
	if parked == 0 {
		t.Fatal("workload drained before the checkpoint; nothing captured")
	}
	rc, err := RestoreCluster(cfg, progs.NewImage(), ck)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	rc.Run(0)
	if err := rc.CheckInvariants(); err != nil {
		t.Fatalf("after restored run: %v", err)
	}
	if got := rc.Trace().String(); got != resumed {
		t.Fatalf("restored continuation diverges from in-place resume:\n--- resumed\n%s\n--- restored\n%s", resumed, got)
	}
	if finished := strings.Count(resumed, "finished on node"); finished != 8 {
		t.Fatalf("%d workers finished, want 8:\n%s", finished, resumed)
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

// reseal returns body sealed with its own digest trailer: an image
// that passes the seal whatever the body says.
func reseal(body string) []byte { return []byte(body + sealOf([]byte(body))) }

// TestCheckpointDecodeRejectsResealedImages: the seal guards against
// accidental corruption only, so DecodeCheckpoint must refuse a
// malformed document behind a valid seal with an error: unknown
// fields, wrong types, bad base64 in a bitmap or a thread image, a
// node count that disagrees with the node states (a huge one included,
// which must be refused before anything is sized by it), data after
// the document, and the retired v1/v2 headers.
func TestCheckpointDecodeRejectsResealedImages(t *testing.T) {
	data, _ := runCheckpointed(t, Config{Nodes: 2}, 2*simtime.Millisecond)
	body := string(data[:bytes.LastIndex(data, []byte("\ndigest "))+1])
	doc := strings.TrimSuffix(strings.TrimPrefix(body, ckptMagic), "\n")
	if _, err := DecodeCheckpoint(reseal(body)); err != nil {
		t.Fatalf("resealed pristine checkpoint rejected: %v", err)
	}
	// field returns the offset just past the first `"name":"` in doc.
	field := func(name string) int {
		i := strings.Index(doc, `"`+name+`":"`)
		if i < 0 {
			t.Fatalf("the checkpoint has no %s string", name)
		}
		return i + len(name) + 4
	}
	bm, img := field("Bitmap"), field("Image")
	end := func(at int) int { return at + strings.IndexByte(doc[at:], '"') }
	edit := func(at, to int, text string) string { return doc[:at] + text + doc[to:] }
	cases := []struct {
		name, body, want string
	}{
		{"unknown field", ckptMagic + `{"Bogus":1,` + doc[1:] + "\n", `unknown field "Bogus"`},
		{"unknown node field", ckptMagic + edit(bm-len(`"Bitmap":"`), bm-len(`"Bitmap":"`), `"Bogus":1,`) + "\n", `unknown field "Bogus"`},
		{"wrong type", ckptMagic + strings.Replace(doc, `"Nodes":2`, `"Nodes":"2"`, 1) + "\n", "cannot unmarshal string"},
		{"bitmap bad base64", ckptMagic + edit(bm, bm+1, "!") + "\n", "illegal base64"},
		{"bitmap truncated base64", ckptMagic + edit(end(bm)-1, end(bm), "") + "\n", "illegal base64"},
		{"bitmap trailing text", ckptMagic + edit(end(bm), end(bm), " 00") + "\n", "illegal base64"},
		{"thread bad base64", ckptMagic + edit(img, img+1, "*") + "\n", "illegal base64"},
		{"thread truncated base64", ckptMagic + edit(end(img)-1, end(img), "") + "\n", "illegal base64"},
		{"thread negative tid", ckptMagic + strings.Replace(doc, `"TID":`, `"TID":-`, 1) + "\n", "cannot unmarshal number -"},
		{"nodes above node states", ckptMagic + strings.Replace(doc, `"Nodes":2`, `"Nodes":3`, 1) + "\n", "2 node states for 3 nodes"},
		{"huge nodes without node states", ckptMagic + `{"Nodes":1000000000,"NodeStates":null}` + "\n", "0 node states for 1000000000 nodes"},
		{"zero nodes", ckptMagic + `{"Nodes":0}` + "\n", "checkpoint of 0 nodes"},
		{"null document", ckptMagic + "null\n", "checkpoint of 0 nodes"},
		{"trailing document", ckptMagic + doc + "\n{}\n", "data after the document"},
		{"trailing text", ckptMagic + doc + " x\n", "data after the document"},
		{"v1 header", strings.Replace(body, ckptMagic, "pm2ckpt v1\n", 1), `not a pm2ckpt v3 image (starts "pm2ckpt v1")`},
		{"v2 header", strings.Replace(body, ckptMagic, "pm2ckpt v2\n", 1), `not a pm2ckpt v3 image (starts "pm2ckpt v2")`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeCheckpoint(reseal(tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}

// stubBalancer is a registered balancer with a round pending at next.
type stubBalancer struct{ next simtime.Time }

func (b stubBalancer) CheckpointPause() BalancerCheckpoint {
	return BalancerCheckpoint{Period: 2 * simtime.Millisecond, NextRoundAt: b.next, Threshold: 2, MaxMoves: 1, Rounds: 3, Moves: 4}
}

func (stubBalancer) CheckpointResume(BalancerCheckpoint) {}

// TestCheckpointImageRoundTrip: for a plain capture, one carrying a
// balancer's round state and the capture a restart-and-refail restore
// starts from, decoding and re-encoding an image gives it back byte for
// byte, and its trailer carries Digest() — the two properties the
// benchmark's checkpoint check asserts.
func TestCheckpointImageRoundTrip(t *testing.T) {
	plain, _ := runCheckpointed(t, Config{Nodes: 4}, 3*simtime.Millisecond)
	refail, _ := runCheckpointed(t, Config{Nodes: 2, RPCTimeout: -1}, 2*simtime.Millisecond)
	c := New(Config{Nodes: 2}, progs.NewImage())
	c.Spawn(0, "worker", 20_000)
	c.Engine().RunUntil(simtime.Millisecond)
	c.SetBalancer(stubBalancer{next: 2 * simtime.Millisecond})
	bck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if bck.Balancer == nil {
		t.Fatal("the balancer capture carries no balancer")
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"plain", plain}, {"balancer", bck.Encode()}, {"refail", refail}} {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := DecodeCheckpoint(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if got := ck.Encode(); !bytes.Equal(got, tc.data) {
				t.Fatalf("Encode(Decode(image)) differs: %d bytes against %d", len(got), len(tc.data))
			}
			if !bytes.HasSuffix(tc.data, fmt.Appendf(nil, "digest %016x\n", ck.Digest())) {
				t.Fatal("the trailer does not carry Digest()")
			}
			if tc.name == "balancer" && (ck.Balancer == nil || *ck.Balancer != *bck.Balancer) {
				t.Fatalf("balancer state %+v, captured %+v", ck.Balancer, bck.Balancer)
			}
			if tc.name == "refail" {
				cfg := Config{Nodes: 2, RPCTimeout: -1, Faults: mustPlan(t, fmt.Sprintf("crash:1@%d", (ck.Now+simtime.Millisecond)/simtime.Microsecond))}
				if _, err := RestoreCluster(cfg, progs.NewImage(), ck); err != nil {
					t.Fatalf("refail restore: %v", err)
				}
			}
		})
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

// benchCheckpoint captures a 16-node cluster 3 ms into 64 worker
// threads, every one of them parked with its stack and isomalloc cell.
func benchCheckpoint(b *testing.B) *Checkpoint {
	b.Helper()
	c := New(Config{Nodes: 16}, progs.NewImage())
	for i := 0; i < 64; i++ {
		c.Spawn(i%16, "worker", 20_000)
	}
	c.Engine().RunUntil(3 * simtime.Millisecond)
	ck, err := c.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	return ck
}

// BenchmarkCheckpointEncode measures pm2ckpt encoding in MB/s of image.
func BenchmarkCheckpointEncode(b *testing.B) {
	ck := benchCheckpoint(b)
	b.SetBytes(int64(len(ck.Encode())))
	for b.Loop() {
		ck.Encode()
	}
}

// BenchmarkCheckpointDecode measures pm2ckpt decoding in MB/s of image.
func BenchmarkCheckpointDecode(b *testing.B) {
	data := benchCheckpoint(b).Encode()
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		if _, err := DecodeCheckpoint(data); err != nil {
			b.Fatal(err)
		}
	}
}
