package marcel

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// fakeEnv implements the builtins marcel's own tests need, standing in for
// the PM2 runtime.
type fakeEnv struct {
	s  *Scheduler
	ns *core.NodeSlots
}

func (e *fakeEnv) Builtin(id uint32, args [4]uint32) vm.BuiltinResult {
	t := e.s.Current()
	switch id {
	case isa.BYield:
		return vm.BuiltinResult{Ctl: vm.CtlYield}
	case isa.BExit:
		return vm.BuiltinResult{Ctl: vm.CtlExit}
	case isa.BMigrate:
		return vm.BuiltinResult{Ctl: vm.CtlMigrate, Dest: int(args[0])}
	case isa.BSelfThread:
		return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: t.Desc}
	case isa.BIsomalloc:
		addr, err := e.s.Arena(t).Isomalloc(args[0], e.ns)
		if err != nil {
			return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: 0}
		}
		return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: addr}
	case isa.BIsofree:
		if err := e.s.Arena(t).Isofree(args[0], e.ns); err != nil {
			return vm.BuiltinResult{Ctl: vm.CtlFault, Err: err}
		}
		return vm.BuiltinResult{Ctl: vm.CtlReturn}
	case isa.BJoin:
		if e.s.Join(t, args[0]) {
			return vm.BuiltinResult{Ctl: vm.CtlReturn}
		}
		return vm.BuiltinResult{Ctl: vm.CtlBlock}
	}
	return vm.BuiltinResult{Ctl: vm.CtlFault, Err: vmErr(id)}
}

func vmErr(id uint32) error {
	return &unsupported{id}
}

type unsupported struct{ id uint32 }

func (u *unsupported) Error() string { return "unsupported builtin " + isa.BuiltinName(u.id) }

type fixture struct {
	im  *isa.Image
	ns  *core.NodeSlots
	s   *Scheduler
	env *fakeEnv
}

func newFixture(t *testing.T, quantum int64) *fixture {
	t.Helper()
	im := isa.NewImage()
	ns := core.NewNodeSlots(vmem.NewSpace(), core.NopCharger{}, core.NodeConfig{
		NodeID: 0, NumNodes: 1, CacheCap: 4,
	})
	s := NewScheduler(ns.Space(), im, ns, core.NopCharger{}, Config{NodeID: 0, Quantum: quantum})
	env := &fakeEnv{s: s, ns: ns}
	s.SetEnv(env)
	return &fixture{im: im, ns: ns, s: s, env: env}
}

func (f *fixture) program(t *testing.T, src string) Addr {
	t.Helper()
	lp, err := asm.Assemble(f.im, src)
	if err != nil {
		t.Fatal(err)
	}
	return lp.Entry
}

// drain runs the scheduler until no thread is ready (bounded).
func (f *fixture) drain(t *testing.T) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if !f.s.RunOne() {
			return
		}
	}
	t.Fatal("scheduler did not drain")
}

func TestCreateRunExit(t *testing.T) {
	f := newFixture(t, 64)
	entry := f.program(t, `
.program trivial
main:
    loadi r2, 5
    loadi r3, 7
    mul   r4, r2, r3
    halt
`)
	var exited []*Thread
	f.s.SetHooks(Hooks{Exit: func(th *Thread) { exited = append(exited, th) }})
	th, err := f.s.Create(entry, 0)
	if err != nil {
		t.Fatal(err)
	}
	if th.TID == 0 || !layout.InIsoArea(th.Desc) {
		t.Fatalf("thread = %+v", th)
	}
	f.drain(t)
	if len(exited) != 1 || exited[0].TID != th.TID {
		t.Fatalf("exit hook: %+v", exited)
	}
	if f.s.Threads() != 0 {
		t.Fatal("thread not reaped")
	}
	// All slots returned to the node (the stack slot included).
	if f.ns.OwnedFree() != layout.SlotCount {
		t.Fatalf("owned = %d, want all", f.ns.OwnedFree())
	}
}

func TestArgumentPassing(t *testing.T) {
	f := newFixture(t, 64)
	// The thread stores its argument into isomalloc'd memory.
	entry := f.program(t, `
.program argstore
main:
    mov   r5, r1        ; save arg
    loadi r1, 64
    callb isomalloc
    mov   r6, r0        ; yield clobbers r0
    store [r6], r5
    callb yield         ; park so we can inspect before exit
    halt
`)
	th, err := f.s.Create(entry, 0xCAFE)
	if err != nil {
		t.Fatal(err)
	}
	// One quantum runs the thread up to its yield, where it parks
	// still resident; r6 holds the isomalloc address. Running it on
	// would halt it and release the slot that holds the word.
	if !f.s.RunOne() {
		t.Fatal("no thread dispatched")
	}
	if f.s.Threads() != 1 {
		t.Fatalf("%d threads resident after the yield, want 1", f.s.Threads())
	}
	addr := th.Regs.R[6]
	v, err := f.ns.Space().Load32(addr)
	if err != nil || v != 0xCAFE {
		t.Fatalf("arg in memory = %#x, %v", v, err)
	}
}

func TestRoundRobinInterleaving(t *testing.T) {
	f := newFixture(t, 10)
	entry := f.program(t, `
.program spin
main:
    loadi r2, 0
    loadi r3, 100
top:
    addi  r2, r2, 1
    blt   r2, r3, top
    halt
`)
	a, _ := f.s.Create(entry, 0)
	b, _ := f.s.Create(entry, 0)
	// With a quantum of 10 and a 100-iteration loop, both threads must
	// interleave: after 4 dispatches, both have run.
	for i := 0; i < 4; i++ {
		f.s.RunOne()
	}
	if a.Regs.R[2] == 0 || b.Regs.R[2] == 0 {
		t.Fatalf("no interleaving: a=%d b=%d", a.Regs.R[2], b.Regs.R[2])
	}
	f.drain(t)
	if f.s.Threads() != 0 {
		t.Fatal("threads not finished")
	}
}

func TestFaultHookAndCleanup(t *testing.T) {
	f := newFixture(t, 64)
	entry := f.program(t, `
.program crash
main:
    loadi r1, 0x10
    load  r2, [r1]     ; unmapped
    halt
`)
	var faults []error
	f.s.SetHooks(Hooks{Fault: func(th *Thread, err error) { faults = append(faults, err) }})
	if _, err := f.s.Create(entry, 0); err != nil {
		t.Fatal(err)
	}
	f.drain(t)
	if len(faults) != 1 || !strings.Contains(faults[0].Error(), "segmentation fault") {
		t.Fatalf("faults = %v", faults)
	}
	if f.ns.OwnedFree() != layout.SlotCount {
		t.Fatal("faulted thread's slots leaked")
	}
}

func TestJoin(t *testing.T) {
	f := newFixture(t, 8)
	worker := f.program(t, `
.program worker
main:
    loadi r2, 0
    loadi r3, 50
wtop:
    addi  r2, r2, 1
    blt   r2, r3, wtop
    halt
`)
	_ = worker
	f2 := f.program(t, `
.program joiner
main:
    callb join         ; r1 = tid of the worker (passed as arg)
    loadi r15, 123
    halt
`)
	w, err := f.s.Create(worker, 0)
	if err != nil {
		t.Fatal(err)
	}
	j, err := f.s.Create(f2, w.TID)
	if err != nil {
		t.Fatal(err)
	}
	j.Regs.R[1] = w.TID
	f.drain(t)
	if j.Regs.R[15] != 123 {
		t.Fatal("joiner did not resume after worker exit")
	}
	// Joining an already-dead thread returns immediately.
	j2, _ := f.s.Create(f2, w.TID)
	j2.Regs.R[1] = w.TID
	f.drain(t)
	if j2.Regs.R[15] != 123 {
		t.Fatal("join on dead thread should not block")
	}
}

func TestBlockAndWake(t *testing.T) {
	f := newFixture(t, 64)
	entry := f.program(t, `
.program blocker
main:
    callb join        ; will block (self-arranged below)
    mov   r15, r0     ; r0 set by Wake
    halt
`)
	victim := f.program(t, `
.program sleeper
main:
top:
    callb yield
    br top
`)
	v, _ := f.s.Create(victim, 0)
	b, _ := f.s.Create(entry, 0)
	b.Regs.R[1] = v.TID // join the immortal sleeper → blocks
	for i := 0; i < 20; i++ {
		f.s.RunOne()
	}
	if !b.blocked {
		t.Fatal("joiner should be blocked")
	}
	f.s.Wake(b, 77)
	for i := 0; i < 20; i++ {
		f.s.RunOne()
	}
	if b.Regs.R[15] != 77 {
		t.Fatalf("r15 = %d, want the Wake value", b.Regs.R[15])
	}
}

func TestFreezeThawRoundTrip(t *testing.T) {
	f := newFixture(t, 6)
	entry := f.program(t, `
.program counter
main:
    loadi r2, 0
    loadi r3, 1000
top:
    addi  r2, r2, 1
    blt   r2, r3, top
    mov   r15, r2
    halt
`)
	th, err := f.s.Create(entry, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Run a few quanta, then freeze mid-loop.
	for i := 0; i < 5; i++ {
		f.s.RunOne()
	}
	mid := th.Regs.R[2]
	if mid == 0 || mid >= 1000 {
		t.Fatalf("r2 = %d, want mid-loop", mid)
	}
	if err := f.s.Freeze(th); err != nil {
		t.Fatal(err)
	}
	f.s.Detach(th)
	if f.s.Threads() != 0 {
		t.Fatal("detach failed")
	}
	// Thaw from memory alone: state must continue exactly.
	th2, err := f.s.Thaw(th.Desc)
	if err != nil {
		t.Fatal(err)
	}
	if th2.TID != th.TID || th2.Regs.R[2] != mid || th2.Regs.PC != th.Regs.PC {
		t.Fatalf("thawed state differs: %+v vs %+v", th2.Regs, th.Regs)
	}
	f.drain(t)
	if th2.Regs.R[15] != 1000 {
		t.Fatalf("r15 = %d after thawed completion", th2.Regs.R[15])
	}
}

func TestVoluntaryMigrationHook(t *testing.T) {
	f := newFixture(t, 64)
	entry := f.program(t, `
.program mig
main:
    loadi r1, 1
    callb migrate
    halt
`)
	var gone []*Thread
	var dests []int
	f.s.SetHooks(Hooks{Migrate: func(th *Thread, dest int) { gone = append(gone, th); dests = append(dests, dest) }})
	th, _ := f.s.Create(entry, 0)
	f.drain(t)
	if len(gone) != 1 || gone[0].TID != th.TID || dests[0] != 1 {
		t.Fatalf("migration hook: %v %v", gone, dests)
	}
	if f.s.Threads() != 0 {
		t.Fatal("migrating thread still resident")
	}
	// Frozen descriptor records the state.
	buf, _ := f.ns.Space().ReadBytes(th.Desc+dStatus, 4)
	if buf[0] != StatusFrozen {
		t.Fatalf("descriptor status = %d", buf[0])
	}
}

func TestPreemptiveMigrationRequest(t *testing.T) {
	f := newFixture(t, 8)
	entry := f.program(t, `
.program loopy
main:
top:
    addi r2, r2, 1
    br top
`)
	var migrated *Thread
	var dest int
	f.s.SetHooks(Hooks{Migrate: func(th *Thread, d int) { migrated = th; dest = d }})
	th, _ := f.s.Create(entry, 0)
	for i := 0; i < 3; i++ {
		f.s.RunOne()
	}
	if !f.s.RequestMigration(th.TID, 2) {
		t.Fatal("RequestMigration failed")
	}
	f.s.RunOne() // boundary: migration fires instead of another quantum
	if migrated == nil || migrated.TID != th.TID || dest != 2 {
		t.Fatalf("preemptive migration: %+v dest=%d", migrated, dest)
	}
	if f.s.RequestMigration(999, 1) {
		t.Fatal("RequestMigration on unknown tid should fail")
	}
}

func TestSchedulerStats(t *testing.T) {
	f := newFixture(t, 16)
	entry := f.program(t, `
.program quick
main:
    halt
`)
	f.s.Create(entry, 0)
	f.s.Create(entry, 0)
	f.drain(t)
	created, finished, faulted, dispatches, instrs := f.s.Stats()
	if created != 2 || finished != 2 || faulted != 0 {
		t.Fatalf("stats: %d %d %d", created, finished, faulted)
	}
	if dispatches < 2 || instrs < 2 {
		t.Fatalf("dispatches=%d instrs=%d", dispatches, instrs)
	}
}

func TestThawRejectsGarbage(t *testing.T) {
	f := newFixture(t, 16)
	sp := f.ns.Space()
	if err := sp.Mmap(layout.IsoBase, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	if _, err := f.s.Thaw(layout.IsoBase + core.SlotHeaderSize); err == nil {
		t.Fatal("thawing garbage must fail")
	}
}

// TestTLBEmptyOffRunQueue: a runnable thread keeps its TLB between
// quanta, and a thread that blocks, exits or is detached leaves with an
// empty one, so it pins no page of the space.
func TestTLBEmptyOffRunQueue(t *testing.T) {
	f := newFixture(t, 64)
	sleeper := f.program(t, `
.program sleeper
main:
top:
    push  r2
    pop   r3
    callb yield
    br    top
`)
	blocker := f.program(t, `
.program blocker
main:
    push  r2
    pop   r3
    callb join
    halt
`)
	exiter := f.program(t, `
.program exiter
main:
    push  r2
    pop   r3
    halt
`)
	s, _ := f.s.Create(sleeper, 0)
	b, _ := f.s.Create(blocker, 0)
	b.Regs.R[1] = s.TID
	e, _ := f.s.Create(exiter, 0)
	for i := 0; i < 6; i++ {
		f.s.RunOne()
	}
	if s.TLB.Entries() == 0 {
		t.Fatal("a runnable thread's TLB is empty between quanta")
	}
	if !b.Blocked() || b.TLB.Entries() != 0 {
		t.Fatalf("blocked=%v with %d TLB entries, want blocked with none", b.Blocked(), b.TLB.Entries())
	}
	if _, resident := f.s.Lookup(e.TID); resident || e.TLB.Entries() != 0 {
		t.Fatalf("resident=%v with %d TLB entries, want exited with none", resident, e.TLB.Entries())
	}
	if err := f.s.Freeze(s); err != nil {
		t.Fatal(err)
	}
	f.s.Detach(s)
	if s.TLB.Entries() != 0 {
		t.Fatalf("a detached thread keeps %d TLB entries", s.TLB.Entries())
	}
}
