package pm2

import (
	"flag"
	"strings"
	"testing"

	ipm2 "repro/internal/pm2"
)

func TestQuickstartFlow(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 2})
	cl.Spawn(0, "p4", 150)
	cl.Run()
	out := cl.Output()
	if len(out) != 153 {
		t.Fatalf("output lines = %d", len(out))
	}
	if !strings.Contains(cl.OutputString(), "Arrived at node 1") {
		t.Fatal("missing migration arrival line")
	}
	st := cl.Stats()
	if st.Migrations != 1 || st.AvgMigrationMicros <= 0 || st.VirtualMicros <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterCustomProgram(t *testing.T) {
	sys := NewSystem()
	sys.MustRegister(`
.program hello
.string hi "hello from node %d\n"
main:
    callb self_node
    mov   r2, r0
    loadi r1, hi
    callb printf
    halt
`)
	cl := sys.Boot(Config{Nodes: 1})
	cl.Spawn(0, "hello", 0)
	cl.Run()
	if got := cl.OutputString(); got != "[node0] hello from node 0" {
		t.Fatalf("output = %q", got)
	}
}

func TestRegisterErrors(t *testing.T) {
	sys := NewSystem()
	if err := sys.Register("garbage"); err == nil {
		t.Fatal("bad program must fail")
	}
}

func TestParseDistribution(t *testing.T) {
	for _, ok := range []string{"", "rr", "round-robin", "partition", "block-cyclic:16"} {
		if _, err := ParseDistribution(ok); err != nil {
			t.Errorf("%q: %v", ok, err)
		}
	}
	for _, bad := range []string{"nope", "block-cyclic:x", "block-cyclic:0"} {
		if _, err := ParseDistribution(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

func TestMigrateThreadAndLocate(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 3})
	tid := cl.SpawnWait(0, "worker", 200_000)
	if got := cl.Locate(tid); got != 0 {
		t.Fatalf("Locate = %d", got)
	}
	cl.RunForMicros(1000)
	if !cl.MigrateThread(0, tid, 2) {
		t.Fatal("MigrateThread failed")
	}
	cl.RunForMicros(5000)
	if got := cl.Locate(tid); got != 2 {
		t.Fatalf("after migration Locate = %d", got)
	}
	cl.Run()
	if cl.Locate(tid) != -1 {
		t.Fatal("finished thread still located")
	}
	if cl.ThreadsOn(0)+cl.ThreadsOn(1)+cl.ThreadsOn(2) != 0 {
		t.Fatal("threads remain")
	}
}

func TestRelocationPolicyConfig(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 2, RelocationPolicy: true})
	cl.Spawn(0, "p2", 0)
	cl.Run()
	if !strings.Contains(cl.OutputString(), "Segmentation fault") {
		t.Fatalf("relocation policy should break p2:\n%s", cl.OutputString())
	}
}

func TestRecordAllocations(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 2, RecordAllocations: true})
	cl.Spawn(0, "p4", 110)
	cl.Run()
	allocs := cl.Allocations()
	if len(allocs) != 110 {
		t.Fatalf("allocation samples = %d", len(allocs))
	}
	for _, a := range allocs {
		if !a.Isomalloc || !a.OK || a.Size != 8 {
			t.Fatalf("sample = %+v", a)
		}
	}
}

func TestNoCacheConfig(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 2, SlotCache: -1})
	cl.Spawn(0, "pingpong", 10)
	cl.Run()
	if cl.Stats().Migrations != 10 {
		t.Fatalf("stats = %+v", cl.Stats())
	}
	if got := cl.Internal().Node(0).Slots().CachedSlots(); got != 0 {
		t.Fatalf("cache disabled but %d slots cached", got)
	}
}

func TestDefragmentFacade(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 4, PreBuySlots: 4})
	cl.Defragment()
	st := cl.Stats()
	if st.Defragmentations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	// The Figure 7 workload still runs cleanly on the restructured map.
	cl.Spawn(0, "p4", 120)
	cl.Run()
	if len(cl.Output()) != 123 {
		t.Fatalf("output lines = %d", len(cl.Output()))
	}
}

func TestConvoyConfig(t *testing.T) {
	run := func(convoy bool) Stats {
		sys := NewSystem()
		sys.RegisterExamples()
		cl := sys.Boot(Config{Nodes: 2, Convoy: convoy})
		cl.Spawn(0, "pingpong", 12)
		cl.Run()
		if err := cl.Validate(); err != nil {
			t.Fatal(err)
		}
		return cl.Stats()
	}
	zc := run(true)
	if zc.Migrations != 12 || zc.Convoys != 12 {
		t.Fatalf("zero-copy run: %d migrations, %d convoys, want 12/12", zc.Migrations, zc.Convoys)
	}
	if zc.MigratedBytes == 0 {
		t.Fatal("zero-copy run reported no migrated payload bytes")
	}
	legacy := run(false)
	if legacy.Convoys != 0 {
		t.Fatalf("default run sent %d convoy messages, want 0", legacy.Convoys)
	}
	if legacy.MigratedBytes != zc.MigratedBytes {
		t.Fatalf("payload accounting differs: legacy %d B, convoy %d B", legacy.MigratedBytes, zc.MigratedBytes)
	}
	if zc.AvgMigrationMicros >= legacy.AvgMigrationMicros {
		t.Fatalf("zero-copy migration (%.1f µs) not below legacy (%.1f µs)",
			zc.AvgMigrationMicros, legacy.AvgMigrationMicros)
	}
}

// TestPublicCheckpointRestore pins the public checkpoint surface:
// capture mid-run, restore through a fresh System carrying the same
// image, and the restored run's full output (including the pre-capture
// lines the checkpoint recorded) is byte-identical to resuming the
// capturing cluster in place.
func TestPublicCheckpointRestore(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 4})
	cl.Spawn(0, "p4", 1000)
	cl.RunForMicros(500)
	data, err := cl.CheckpointBytes()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	cl.Resume()
	cl.Run()
	want := cl.OutputString()

	sys2 := NewSystem()
	sys2.RegisterExamples()
	rc, err := sys2.Restore(data)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	rc.Run()
	if got := rc.OutputString(); got != want {
		t.Fatalf("restored continuation diverged:\n--- resumed ---\n%s--- restored ---\n%s", want, got)
	}
	if err := rc.Validate(); err != nil {
		t.Fatalf("restored cluster invariants: %v", err)
	}
}

// TestRestoreRejectsUnknownConfig: a correctly sealed pm2ckpt whose
// config line names a strategy this build does not know — including the
// removed "batched" gather and "optimistic" arbiter — is refused with an
// error, never a panic.
func TestRestoreRejectsUnknownConfig(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 4})
	cl.Spawn(0, "p4", 1000)
	cl.RunForMicros(500)
	data, err := cl.CheckpointBytes()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	cases := []struct {
		name string
		edit func(*ipm2.Checkpoint)
		want string
	}{
		{"gather=batched", func(ck *ipm2.Checkpoint) { ck.Gather = "batched" }, `unknown gather strategy "batched" (have [sequential tree delta])`},
		{"arbiter=optimistic", func(ck *ipm2.Checkpoint) { ck.Arbiter = "optimistic" }, `unknown arbiter "optimistic" (have [global sharded])`},
		{"arbiter=bogus", func(ck *ipm2.Checkpoint) { ck.Arbiter = "bogus" }, "unknown arbiter"},
		{"dist=bogus", func(ck *ipm2.Checkpoint) { ck.Dist = "bogus" }, "unknown distribution"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := ipm2.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(ck)
			if _, err := sys.Restore(ck.Encode()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestFaultConfig pins the public fault surface: a crash plan through
// Config.Faults plus an attached balancer detects the death, evacuates
// the victim's thread and reclaims its slots, all visible in Stats.
func TestFaultConfig(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 4, Faults: "crash:1@3000"})
	cl.AttachBalancer(2000)
	cl.Spawn(1, "worker", 30_000)
	cl.Run()
	st := cl.Stats()
	if st.Evacuations != 1 || st.EvacuatedThreads != 1 {
		t.Fatalf("evacuations=%d evacuated=%d, want 1/1", st.Evacuations, st.EvacuatedThreads)
	}
	if st.ReclaimedSlots == 0 {
		t.Fatal("no slots reclaimed from the dead rank")
	}
	if !strings.Contains(cl.OutputString(), "declared dead") {
		t.Fatal("missing failover declaration line")
	}
}

// TestBindFlagsRejectsBadValues: every bad cluster-flag value comes back
// from the binder as an error — never a panic, never a silent default.
func TestBindFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-fault", "bogus"},
		{"-dist", "bogus"},
		{"-nodes", "-3"},
		{"-nodes", "0"},
		{"-nodes", "1", "-fault", "crash:1@3000"},
		{"-nodes", "2", "-fault", "crash:5@3000"},
		{"-fault", "crash:1@9999999999999s"},
		{"-gather", "bogus"},
		{"-arbiter", "bogus"},
		{"-policy", "bogus"},
		{"-rpc-timeout", "bogus"},
		{"-rpc-timeout", "0"},
		{"-rpc-timeout", "-5"},
		{"-heartbeat-misses", "-1"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		bound := BindFlags(fs, Config{Nodes: 2})
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if cfg, err := bound(); err == nil {
			t.Errorf("%v: accepted as %+v", args, cfg)
		}
	}
}

// TestBindFlagsDefaultsAndCanonicalNames: unset flags keep the caller's
// defaults, and names come back canonical.
func TestBindFlagsDefaultsAndCanonicalNames(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	bound := BindFlags(fs, Config{Nodes: 4, HeartbeatMisses: 3})
	if err := fs.Parse([]string{"-policy", "rr", "-gather", "incremental", "-arbiter", "shard", "-rpc-timeout", "auto", "-convoy"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := bound()
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Nodes: 4, HeartbeatMisses: 3, Policy: "round-robin", Gather: "delta", Arbiter: "sharded", RPCTimeoutMicros: -1, Convoy: true}
	if cfg != want {
		t.Fatalf("bound %+v, want %+v", cfg, want)
	}
}
