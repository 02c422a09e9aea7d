package vm

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/vmem"
)

// testEnv records builtin calls and returns scripted results.
type testEnv struct {
	calls   []uint32
	args    [][4]uint32
	results map[uint32]BuiltinResult
}

func (e *testEnv) Builtin(id uint32, args [4]uint32) BuiltinResult {
	e.calls = append(e.calls, id)
	e.args = append(e.args, args)
	if r, ok := e.results[id]; ok {
		return r
	}
	return BuiltinResult{Ctl: CtlReturn, Ret: 0}
}

// harness assembles src, maps a 64 KB stack and returns a ready thread.
func harness(t *testing.T, src string) (*isa.Image, *vmem.Space, *Thread, *testEnv) {
	t.Helper()
	im := isa.NewImage()
	lp, err := asm.Assemble(im, src)
	if err != nil {
		t.Fatal(err)
	}
	sp := vmem.NewSpace()
	stackBase := isa.Addr(layout.IsoBase)
	if err := sp.Mmap(stackBase, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	if data := im.DataImage(); len(data) > 0 {
		if err := sp.Mmap(layout.DataBase, int(layout.PageCeil(uint32(len(data))))); err != nil {
			t.Fatal(err)
		}
		if err := sp.Write(layout.DataBase, data); err != nil {
			t.Fatal(err)
		}
	}
	rf := &RegFile{PC: uint32(lp.Entry), SP: uint32(stackBase) + layout.SlotSize}
	th := &Thread{Regs: rf, StackLimit: uint32(stackBase) + 256}
	return im, sp, th, &testEnv{results: map[uint32]BuiltinResult{}}
}

func run(t *testing.T, src string) (*Thread, Status, *vmem.Space, *testEnv) {
	t.Helper()
	im, sp, th, env := harness(t, src)
	st := Run(im, sp, th, env, 1_000_000)
	return th, st, sp, env
}

func TestArithmetic(t *testing.T) {
	th, st, _, _ := run(t, `
.program a
main:
    loadi r1, 20
    loadi r2, 3
    add  r3, r1, r2   ; 23
    sub  r4, r1, r2   ; 17
    mul  r5, r1, r2   ; 60
    div  r6, r1, r2   ; 6
    mod  r7, r1, r2   ; 2
    and  r8, r1, r2   ; 0
    or   r9, r1, r2   ; 23
    xor  r10, r1, r2  ; 23
    shl  r11, r1, r2  ; 160
    shr  r12, r1, r2  ; 2
    addi r13, r1, -25 ; -5
    halt
`)
	if st.Kind != Exited {
		t.Fatalf("status = %v (%v)", st.Kind, st.Fault)
	}
	want := map[int]uint32{3: 23, 4: 17, 5: 60, 6: 6, 7: 2, 8: 0, 9: 23, 10: 23, 11: 160, 12: 2}
	for r, v := range want {
		if th.Regs.R[r] != v {
			t.Errorf("r%d = %d, want %d", r, th.Regs.R[r], v)
		}
	}
	if int32(th.Regs.R[13]) != -5 {
		t.Errorf("r13 = %d, want -5", int32(th.Regs.R[13]))
	}
	if st.Instrs != 14 {
		t.Errorf("Instrs = %d, want 14", st.Instrs)
	}
}

func TestArithmeticMatchesGoSemantics(t *testing.T) {
	im := isa.NewImage()
	lp, err := asm.Assemble(im, `
.program ops
main:
    add r3, r1, r2
    sub r4, r1, r2
    mul r5, r1, r2
    and r6, r1, r2
    or  r7, r1, r2
    xor r8, r1, r2
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	sp := vmem.NewSpace()
	f := func(a, b uint32) bool {
		rf := &RegFile{PC: uint32(lp.Entry), SP: 0x1000}
		rf.R[1], rf.R[2] = a, b
		th := &Thread{Regs: rf}
		st := Run(im, sp, th, &testEnv{}, 100)
		return st.Kind == Exited &&
			rf.R[3] == a+b && rf.R[4] == a-b && rf.R[5] == a*b &&
			rf.R[6] == a&b && rf.R[7] == a|b && rf.R[8] == a^b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBranches(t *testing.T) {
	th, st, _, _ := run(t, `
.program b
main:
    loadi r1, -1       ; signed -1
    loadi r2, 1
    blt   r1, r2, ok1  ; signed: -1 < 1
    halt
ok1:
    bltu  r2, r1, ok2  ; unsigned: 1 < 0xffffffff
    halt
ok2:
    beq   r1, r1, ok3
    halt
ok3:
    bne   r1, r2, ok4
    halt
ok4:
    bge   r2, r1, ok5  ; signed 1 >= -1
    halt
ok5:
    bgeu  r1, r2, ok6  ; unsigned max >= 1
    halt
ok6:
    loadi r15, 777
    halt
`)
	if st.Kind != Exited || th.Regs.R[15] != 777 {
		t.Fatalf("branch chain broken: r15=%d st=%v", th.Regs.R[15], st.Kind)
	}
}

func TestLoopSum(t *testing.T) {
	th, st, _, _ := run(t, `
.program sum
main:
    loadi r1, 0     ; i
    loadi r2, 0     ; sum
    loadi r3, 100
top:
    bge   r1, r3, done
    add   r2, r2, r1
    addi  r1, r1, 1
    br    top
done:
    halt
`)
	if st.Kind != Exited || th.Regs.R[2] != 4950 {
		t.Fatalf("sum = %d, st = %v", th.Regs.R[2], st.Kind)
	}
}

func TestMemoryAndByteOps(t *testing.T) {
	th, st, _, _ := run(t, `
.program mem
main:
    mov   r1, sp
    addi  r1, r1, -64
    loadi r2, 0x11223344
    store [r1+8], r2
    load  r3, [r1+8]
    loadb r4, [r1+8]    ; low byte, little endian = 0x44
    loadi r5, 0xff
    storeb [r1+9], r5
    load  r6, [r1+8]    ; 0x1122ff44
    halt
`)
	if st.Kind != Exited {
		t.Fatalf("st = %v (%v)", st.Kind, st.Fault)
	}
	if th.Regs.R[3] != 0x11223344 || th.Regs.R[4] != 0x44 || th.Regs.R[6] != 0x1122ff44 {
		t.Fatalf("r3=%#x r4=%#x r6=%#x", th.Regs.R[3], th.Regs.R[4], th.Regs.R[6])
	}
}

func TestCallEnterLeaveFactorial(t *testing.T) {
	// Recursive factorial exercises the full frame discipline: CALL/RET,
	// ENTER/LEAVE, arguments on the stack, locals, and the FP chain.
	th, st, _, _ := run(t, `
.program fact
main:
    loadi r1, 10
    push  r1
    call  fact
    addi  sp, sp, 4
    halt
fact:                  ; arg n at [fp+8]; returns r0 = n!
    enter 4
    load  r1, [fp+8]
    loadi r2, 2
    bge   r1, r2, rec
    loadi r0, 1
    leave
    ret
rec:
    store [fp-4], r1   ; save n in a local (in simulated memory!)
    addi  r1, r1, -1
    push  r1
    call  fact
    addi  sp, sp, 4
    load  r1, [fp-4]
    mul   r0, r0, r1
    leave
    ret
`)
	if st.Kind != Exited {
		t.Fatalf("st = %v (%v)", st.Kind, st.Fault)
	}
	if th.Regs.R[0] != 3628800 {
		t.Fatalf("10! = %d", th.Regs.R[0])
	}
}

func TestFPChainLivesInMemory(t *testing.T) {
	// After ENTER, the word at [FP] is the caller's FP: the compiler-
	// generated chain the paper relies on. Verify it by walking it.
	im, sp, th, env := harness(t, `
.program chain
main:
    enter 8
    call  f1
    halt
f1:
    enter 16
    call  f2
    leave
    ret
f2:
    enter 4
    callb yield     ; stop here so we can inspect three live frames
    leave
    ret
`)
	env.results[isa.BYield] = BuiltinResult{Ctl: CtlYield}
	st := Run(im, sp, th, env, 10_000)
	if st.Kind != Yielded {
		t.Fatalf("st = %v (%v)", st.Kind, st.Fault)
	}
	// Walk the chain: FP -> caller FP -> caller's caller FP -> 0.
	depth := 0
	fp := th.Regs.FP
	for fp != 0 {
		depth++
		v, err := sp.Load32(fp)
		if err != nil {
			t.Fatalf("chain walk fault at %#x: %v", fp, err)
		}
		if v != 0 && v <= fp {
			t.Fatalf("chain not monotonic: %#x -> %#x", fp, v)
		}
		fp = v
		if depth > 10 {
			t.Fatal("chain too deep")
		}
	}
	if depth != 3 {
		t.Fatalf("frame depth = %d, want 3", depth)
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	_, st, _, _ := run(t, `
.program dz
main:
    loadi r1, 5
    loadi r2, 0
    div   r3, r1, r2
    halt
`)
	if st.Kind != Faulted || !strings.Contains(st.Fault.Error(), "division by zero") {
		t.Fatalf("st = %v (%v)", st.Kind, st.Fault)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	_, st, _, _ := run(t, `
.program sf
main:
    loadi r1, 0x500000
    load  r2, [r1]
    halt
`)
	if st.Kind != Faulted || !vmem.IsSegfault(st.Fault) {
		t.Fatalf("st = %v (%v)", st.Kind, st.Fault)
	}
}

func TestStackOverflowFaults(t *testing.T) {
	_, st, _, _ := run(t, `
.program so
main:
    call main      ; infinite recursion
`)
	if st.Kind != Faulted || !strings.Contains(st.Fault.Error(), "stack overflow") {
		t.Fatalf("st = %v (%v)", st.Kind, st.Fault)
	}
}

func TestEnterOverflowFaults(t *testing.T) {
	_, st, _, _ := run(t, `
.program eo
main:
    enter 0x100000   ; locals bigger than the stack
    halt
`)
	if st.Kind != Faulted || !strings.Contains(st.Fault.Error(), "stack overflow") {
		t.Fatalf("st = %v (%v)", st.Kind, st.Fault)
	}
}

func TestBadFetchFaults(t *testing.T) {
	im, sp, th, env := harness(t, ".program f\nmain:\n nop\n nop")
	th.Regs.PC = 0x10 // outside the code region
	st := Run(im, sp, th, env, 10)
	if st.Kind != Faulted || !strings.Contains(st.Fault.Error(), "instruction fetch") {
		t.Fatalf("st = %v (%v)", st.Kind, st.Fault)
	}
}

func TestRunOffEndFaults(t *testing.T) {
	_, st, _, _ := run(t, ".program off\nmain:\n nop") // no halt
	if st.Kind != Faulted {
		t.Fatalf("st = %v", st.Kind)
	}
}

func TestBudgetPreemption(t *testing.T) {
	im, sp, th, env := harness(t, `
.program spin
main:
    br main
`)
	st := Run(im, sp, th, env, 50)
	if st.Kind != Running || st.Instrs != 50 {
		t.Fatalf("st = %v instrs = %d", st.Kind, st.Instrs)
	}
	// Resuming continues seamlessly.
	st = Run(im, sp, th, env, 70)
	if st.Kind != Running || st.Instrs != 70 {
		t.Fatalf("resume st = %v instrs = %d", st.Kind, st.Instrs)
	}
}

func TestBuiltinReturnAndArgs(t *testing.T) {
	im, sp, th, env := harness(t, `
.program bi
main:
    loadi r1, 11
    loadi r2, 22
    loadi r3, 33
    loadi r4, 44
    callb isomalloc
    halt
`)
	env.results[isa.BIsomalloc] = BuiltinResult{Ctl: CtlReturn, Ret: 0xbeef}
	st := Run(im, sp, th, env, 100)
	if st.Kind != Exited {
		t.Fatalf("st = %v", st.Kind)
	}
	if th.Regs.R[0] != 0xbeef {
		t.Fatalf("r0 = %#x", th.Regs.R[0])
	}
	if len(env.calls) != 1 || env.calls[0] != isa.BIsomalloc {
		t.Fatalf("calls = %v", env.calls)
	}
	if env.args[0] != [4]uint32{11, 22, 33, 44} {
		t.Fatalf("args = %v", env.args[0])
	}
	if st.Builtins != 1 {
		t.Fatalf("Builtins = %d", st.Builtins)
	}
}

func TestBuiltinControls(t *testing.T) {
	cases := []struct {
		ctl  Control
		want StatusKind
	}{
		{CtlYield, Yielded},
		{CtlBlock, Blocked},
		{CtlExit, Exited},
		{CtlMigrate, Migrating},
		{CtlFault, Faulted},
	}
	for _, c := range cases {
		im, sp, th, env := harness(t, `
.program ctl
main:
    callb exit
    loadi r15, 1
    halt
`)
		env.results[isa.BExit] = BuiltinResult{Ctl: c.ctl, Dest: 3, Err: fault("scripted")}
		st := Run(im, sp, th, env, 100)
		if st.Kind != c.want {
			t.Errorf("ctl %v: st = %v", c.ctl, st.Kind)
		}
		if c.ctl == CtlMigrate && st.Dest != 3 {
			t.Errorf("migrate dest = %d", st.Dest)
		}
		if th.Regs.R[15] != 0 {
			t.Errorf("ctl %v: execution continued past builtin", c.ctl)
		}
		// PC is already past the callb: resuming executes the rest.
		if c.ctl == CtlYield || c.ctl == CtlBlock || c.ctl == CtlMigrate {
			st = Run(im, sp, th, env, 100)
			if st.Kind != Exited || th.Regs.R[15] != 1 {
				t.Errorf("ctl %v: resume failed st=%v r15=%d", c.ctl, st.Kind, th.Regs.R[15])
			}
		}
	}
}

func TestPushPopRoundTrip(t *testing.T) {
	th, st, _, _ := run(t, `
.program pp
main:
    loadi r1, 111
    loadi r2, 222
    push  r1
    push  r2
    pop   r3    ; 222
    pop   r4    ; 111
    halt
`)
	if st.Kind != Exited || th.Regs.R[3] != 222 || th.Regs.R[4] != 111 {
		t.Fatalf("r3=%d r4=%d st=%v", th.Regs.R[3], th.Regs.R[4], st.Kind)
	}
}

// spyEnv is a builtin handler that reads and edits the running thread's
// register file the way the runtime does (marcel freezes and wakes a
// thread through its RegFile).
type spyEnv struct {
	th   *Thread
	seen []RegFile
	edit func(rf *RegFile)
	ctl  Control
}

func (e *spyEnv) Builtin(id uint32, args [4]uint32) BuiltinResult {
	e.seen = append(e.seen, *e.th.Regs)
	if e.edit != nil {
		e.edit(e.th.Regs)
	}
	return BuiltinResult{Ctl: e.ctl, Ret: 0x5150, Dest: 1}
}

// spillSrc sets every register to a distinct value and opens a frame,
// then calls a builtin; after the call r8..r10 copy r7, sp and r0.
const spillSrc = `
.program spill
main:
    loadi r0, 100
    loadi r1, 101
    loadi r2, 102
    loadi r3, 103
    loadi r4, 104
    loadi r5, 105
    loadi r6, 106
    loadi r7, 107
    loadi r8, 108
    loadi r9, 109
    loadi r10, 110
    loadi r11, 111
    loadi r12, 112
    loadi r13, 113
    loadi r14, 114
    loadi r15, 115
    enter 8
    callb yield
after:
    mov   r8, r7
    mov   r9, sp
    mov   r10, r0
    halt
`

// spillHarness loads spillSrc with env as its builtin handler and
// returns the register file the interpreter must write at the callb.
func spillHarness(t *testing.T, env *spyEnv) (*isa.Image, *vmem.Space, *Thread, RegFile) {
	t.Helper()
	im, sp, th, _ := harness(t, spillSrc)
	env.th = th
	after, _ := im.Label("spill.after")
	top := th.Regs.SP
	want := RegFile{SP: top - 4 - 8, FP: top - 4, PC: after}
	for i := range want.R {
		want.R[i] = 100 + uint32(i)
	}
	return im, sp, th, want
}

// TestBuiltinSeesSpilledRegisters: the register file a builtin reads is
// exactly the interpreter's state as of the callb, with the PC past it.
func TestBuiltinSeesSpilledRegisters(t *testing.T) {
	env := &spyEnv{ctl: CtlReturn}
	im, sp, th, want := spillHarness(t, env)
	st := Run(im, sp, th, env, 100)
	if st.Kind != Exited || len(env.seen) != 1 {
		t.Fatalf("st = %v (%v), %d builtin calls", st.Kind, st.Fault, len(env.seen))
	}
	if env.seen[0] != want {
		t.Fatalf("builtin saw %+v\nwant        %+v", env.seen[0], want)
	}
	if th.Regs.R[10] != 0x5150 || th.Regs.R[8] != 107 || th.Regs.R[9] != want.SP {
		t.Fatalf("after return: r8=%d r9=%#x r10=%#x", th.Regs.R[8], th.Regs.R[9], th.Regs.R[10])
	}
}

// TestBuiltinRegisterEditsVisible: registers the builtin changes are
// what the interpreter continues with; r0 still takes the result.
func TestBuiltinRegisterEditsVisible(t *testing.T) {
	env := &spyEnv{ctl: CtlReturn}
	im, sp, th, want := spillHarness(t, env)
	env.edit = func(rf *RegFile) {
		rf.R[0] = 1
		rf.R[7] = 0xabc
		rf.SP -= 16
	}
	st := Run(im, sp, th, env, 100)
	if st.Kind != Exited {
		t.Fatalf("st = %v (%v)", st.Kind, st.Fault)
	}
	if th.Regs.R[8] != 0xabc || th.Regs.R[9] != want.SP-16 || th.Regs.R[10] != 0x5150 {
		t.Fatalf("r8=%#x r9=%#x r10=%#x, want 0xabc %#x 0x5150",
			th.Regs.R[8], th.Regs.R[9], th.Regs.R[10], want.SP-16)
	}
}

// TestParkedThreadLeavesSpilledState: a builtin that blocks or migrates
// the thread returns with its register file complete, as Freeze reads
// it, and a resumed Run continues after the callb with the register
// the runtime set on wake-up.
func TestParkedThreadLeavesSpilledState(t *testing.T) {
	for _, c := range []struct {
		ctl  Control
		want StatusKind
	}{{CtlBlock, Blocked}, {CtlMigrate, Migrating}} {
		env := &spyEnv{ctl: c.ctl}
		im, sp, th, want := spillHarness(t, env)
		env.edit = func(rf *RegFile) { rf.R[7] = 7 }
		st := Run(im, sp, th, env, 100)
		if st.Kind != c.want {
			t.Fatalf("%v: st = %v (%v)", c.ctl, st.Kind, st.Fault)
		}
		want.R[7] = 7
		if *th.Regs != want {
			t.Fatalf("%v: parked with %+v\nwant           %+v", c.ctl, *th.Regs, want)
		}
		th.Regs.R[0] = 42
		env.ctl = CtlReturn
		if st := Run(im, sp, th, env, 100); st.Kind != Exited {
			t.Fatalf("%v: resume st = %v (%v)", c.ctl, st.Kind, st.Fault)
		}
		if th.Regs.R[8] != 7 || th.Regs.R[10] != 42 || len(env.seen) != 1 {
			t.Fatalf("%v: resume r8=%d r10=%d calls=%d", c.ctl, th.Regs.R[8], th.Regs.R[10], len(env.seen))
		}
	}
}

// TestRunAllocatesNothing pins the interpreter's memory path — load,
// store, their byte forms, push and pop on backed pages — at zero host
// allocations per Run.
func TestRunAllocatesNothing(t *testing.T) {
	im, sp, th, env := harness(t, `
.program memloop
main:
    loadi r1, 0
    loadi r3, 200
    mov   r5, sp
    addi  r5, r5, -64
top:
    bge   r1, r3, done
    store [r5+4], r1
    load  r2, [r5+4]
    storeb [r5+9], r1
    loadb r4, [r5+9]
    push  r2
    pop   r6
    addi  r1, r1, 1
    br    top
done:
    halt
`)
	start := *th.Regs
	var st Status
	allocs := testing.AllocsPerRun(20, func() {
		*th.Regs = start
		st = Run(im, sp, th, env, 1_000_000)
	})
	if st.Kind != Exited || th.Regs.R[6] != 199 {
		t.Fatalf("st = %v (%v), r6 = %d", st.Kind, st.Fault, th.Regs.R[6])
	}
	if allocs != 0 {
		t.Fatalf("Run over a load/store/push/pop loop made %.0f allocations, want 0", allocs)
	}
}
