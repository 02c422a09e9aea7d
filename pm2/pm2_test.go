package pm2

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/madeleine"
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
// error, never a panic. So is an unknown pack mode: a cluster restored
// with one would stamp it on every migration record, and the receiver's
// image decoder refuses it with a panic at the first migration.
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
		{"pack=5", func(ck *ipm2.Checkpoint) { ck.Pack = 5 }, "unknown pack mode 5"},
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

// TestRestoreRejectsTruncatedThreadImage: a thread image cut short and
// re-sealed with Encode passes the digest check, so the restore itself
// must refuse it — with an error, never a panic while installing it. An
// image with bytes past its last group is refused the same way, and so
// is one that breaks any other check of the image decoder.
func TestRestoreRejectsTruncatedThreadImage(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 2})
	cl.Spawn(0, "p4", 1000)
	cl.RunForMicros(500)
	data, err := cl.CheckpointBytes()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	edits := []struct {
		name string
		edit func([]byte) []byte
		want string
	}{
		{"cut 1", func(img []byte) []byte { return img[:len(img)-1] }, "image truncated"},
		{"cut 8", func(img []byte) []byte { return img[:len(img)-8] }, "image truncated"},
		{"cut 20", func(img []byte) []byte { return img[:len(img)-20] }, "image truncated"},
		{"trailing", func(img []byte) []byte { return append(img, 0, 0, 0, 0) }, "trailing bytes"},
		{"pack mode", func(img []byte) []byte { return putU32(img, imgMode, 7) }, "bad pack mode 7"},
		{"group count", func(img []byte) []byte { return putU32(img, imgNGroups, uint32(layout.SlotCount)+1) }, "slot groups"},
		{"base below iso area", func(img []byte) []byte { return putU32(img, imgBase, 0) }, "not a slot in the iso-address area"},
		{"base past iso area", func(img []byte) []byte { return putU32(img, imgBase, uint32(layout.IsoEnd)) }, "not a slot in the iso-address area"},
		{"base unaligned", func(img []byte) []byte { return putU32(img, imgBase, getU32(img, imgBase)+layout.PageSize) }, "not a slot in the iso-address area"},
		{"zero slots", func(img []byte) []byte { return putU32(img, imgNSlots, 0) }, "spans 0 slots"},
		{"slots past the end", func(img []byte) []byte { return putU32(img, imgNSlots, uint32(layout.SlotCount)+1) }, "spans 57345 slots"},
		{"slot kind", func(img []byte) []byte { return putU32(img, imgKind, 9) }, "bad slot kind 9"},
		{"span outside group", func(img []byte) []byte {
			return putU32(img, imgSpanOff, getU32(img, imgNSlots)*layout.SlotSize)
		}, "outside the"},
		{"group twice", func(img []byte) []byte {
			end := firstGroupEnd(img)
			dup := append(append(append([]byte(nil), img[:end]...), img[imgBase:end]...), img[end:]...)
			return putU32(dup, imgNGroups, getU32(img, imgNGroups)+1)
		}, "claims a slot that is free or already claimed"},
	}
	for _, tc := range edits {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := ipm2.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			edited := false
			for i := range ck.NodeStates {
				if th := ck.NodeStates[i].Threads; len(th) > 0 {
					th[0].Image = tc.edit(append([]byte(nil), th[0].Image...))
					edited = true
					break
				}
			}
			if !edited {
				t.Fatal("the checkpoint holds no thread image")
			}
			sealed := ck.Encode()
			if _, err := ipm2.DecodeCheckpoint(sealed); err != nil {
				t.Fatalf("re-sealed checkpoint does not decode: %v", err)
			}
			if _, err := sys.Restore(sealed); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}

// Byte offsets of the thread-image fields the rejection tests edit: the
// record header, then the first group's header and its first span.
const (
	imgMode    = 12
	imgNGroups = 16
	imgBase    = 20
	imgNSlots  = 24
	imgKind    = 28
	imgSpanOff = 36
)

func getU32(img []byte, off int) uint32 { return binary.LittleEndian.Uint32(img[off:]) }

func putU32(img []byte, off int, v uint32) []byte {
	binary.LittleEndian.PutUint32(img[off:], v)
	return img
}

// firstGroupEnd returns the byte offset just past the first slot group
// of a thread image.
func firstGroupEnd(img []byte) int {
	in := madeleine.FromBytes(img[imgBase:])
	in.U32() // base
	in.U32() // slot count
	in.U32() // kind
	nSpans := int(in.U32())
	for sp := 0; sp < nSpans; sp++ {
		in.U32() // offset
		in.BytesSection()
	}
	return len(img) - in.Remaining()
}

// captureTwoNodes runs p4 on a 2-node cluster for 500 µs and returns the
// system and the checkpoint bytes captured there.
func captureTwoNodes(t testing.TB) (*System, []byte) {
	t.Helper()
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 2})
	cl.Spawn(0, "p4", 1000)
	cl.RunForMicros(500)
	data, err := cl.CheckpointBytes()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return sys, data
}

// TestRestoreRejectsClaimedSlot: the restore's cross-image check. A
// re-sealed checkpoint whose thread image claims a slot another image
// already holds, or a slot a node bitmap lists as free, is refused with
// an error before anything is installed.
func TestRestoreRejectsClaimedSlot(t *testing.T) {
	sys, data := captureTwoNodes(t)
	cases := []struct {
		name string
		edit func(ck *ipm2.Checkpoint, st *ipm2.CheckpointNode) error
	}{
		{"two images", func(ck *ipm2.Checkpoint, st *ipm2.CheckpointNode) error {
			twin := st.Threads[0]
			twin.TID++
			twin.Image = append([]byte(nil), twin.Image...)
			st.Threads = append(st.Threads, twin)
			return nil
		}},
		{"listed free", func(ck *ipm2.Checkpoint, st *ipm2.CheckpointNode) error {
			for _, other := range ck.NodeStates {
				for i, b := range other.Bitmap {
					if b != 0 {
						slot := 8*i + bits.TrailingZeros8(b)
						putU32(st.Threads[0].Image, imgBase, uint32(layout.SlotBase(slot)))
						putU32(st.Threads[0].Image, imgNSlots, 1)
						return nil
					}
				}
			}
			return fmt.Errorf("no node bitmap lists a free slot")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := ipm2.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			var st *ipm2.CheckpointNode
			for i := range ck.NodeStates {
				if len(ck.NodeStates[i].Threads) > 0 {
					st = &ck.NodeStates[i]
					break
				}
			}
			if st == nil {
				t.Fatal("the checkpoint holds no thread image")
			}
			if err := tc.edit(ck, st); err != nil {
				t.Fatal(err)
			}
			want := "claims a slot that is free or already claimed"
			if _, err := sys.Restore(ck.Encode()); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error = %v, want %q", err, want)
			}
		})
	}
}

// FuzzRestore: System.Restore returns a cluster or an error for any
// input, never a panic. Each input is tried as it is and, so the fuzzer
// reaches the checks behind the digest, re-sealed: its body gets a fresh
// digest trailer, and whatever DecodeCheckpoint makes of that is
// encoded again and restored.
func FuzzRestore(f *testing.F) {
	sys, data := captureTwoNodes(f)
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		sys.Restore(data)
		body := data
		if i := bytes.LastIndex(data, []byte("\ndigest ")); i >= 0 {
			body = data[:i+1]
		}
		h := fnv.New64a()
		h.Write(body)
		sealed := fmt.Appendf(append([]byte(nil), body...), "digest %016x\n", h.Sum64())
		ck, err := ipm2.DecodeCheckpoint(sealed)
		if err != nil {
			return
		}
		sys.Restore(ck.Encode())
	})
}

// TestRestoreRejectsBadSlotMagic: a thread image whose used-mode data
// group carries a slot header with a flipped magic is well formed, so it
// passes the structural image checks once re-sealed; the install itself
// finds the bad header when it rebuilds the group's free list. The
// restore must refuse it with that error, never panic.
func TestRestoreRejectsBadSlotMagic(t *testing.T) {
	sys := NewSystem()
	sys.RegisterExamples()
	cl := sys.Boot(Config{Nodes: 2})
	cl.Spawn(0, "p4", 1000)
	cl.RunForMicros(500)
	data, err := cl.CheckpointBytes()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	ck, err := ipm2.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	edited := false
	for i := range ck.NodeStates {
		for _, th := range ck.NodeStates[i].Threads {
			if !edited {
				edited = flipSlotMagic(th.Image)
			}
		}
	}
	if !edited {
		t.Fatal("the checkpoint holds no used-mode data group")
	}
	if _, err := sys.Restore(ck.Encode()); err == nil || !strings.Contains(err.Error(), "bad slot magic") {
		t.Fatalf("error = %v, want a bad slot magic", err)
	}
}

// flipSlotMagic flips the first byte of the slot-header magic of the
// first used-mode data group in a thread image, in place, and reports
// whether the image has one.
func flipSlotMagic(img []byte) bool {
	in := madeleine.FromBytes(img)
	in.U32() // descriptor
	in.U64() // migration start stamp
	mode := ipm2.PackMode(in.U32())
	nGroups := int(in.U32())
	for g := 0; g < nGroups && in.Err() == nil; g++ {
		in.U32() // base
		in.U32() // slot count
		kind := core.SlotKind(in.U32())
		nSpans := int(in.U32())
		for sp := 0; sp < nSpans && in.Err() == nil; sp++ {
			off := in.U32()
			data := in.BytesSection()
			if mode == ipm2.PackUsed && kind == core.KindData && off == 0 && len(data) >= core.SlotHeaderSize {
				data[0] ^= 0xff
				return true
			}
		}
	}
	return false
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
