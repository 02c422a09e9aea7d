package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/vmem"
)

// faultCase runs src and expects a fault whose message contains want.
func faultCase(t *testing.T, src, want string) {
	t.Helper()
	_, st, _, _ := run(t, src)
	if st.Kind != Faulted {
		t.Fatalf("status = %v, want fault containing %q", st.Kind, want)
	}
	if !strings.Contains(st.Fault.Error(), want) {
		t.Fatalf("fault = %v, want contains %q", st.Fault, want)
	}
}

func TestFaultMatrix(t *testing.T) {
	t.Run("mod by zero", func(t *testing.T) {
		faultCase(t, `
.program f
main:
    loadi r1, 7
    loadi r2, 0
    mod   r3, r1, r2
    halt
`, "division by zero")
	})
	t.Run("store to unmapped", func(t *testing.T) {
		faultCase(t, `
.program f
main:
    loadi r1, 0x700000
    store [r1], r2
    halt
`, "segmentation fault")
	})
	t.Run("loadb unmapped", func(t *testing.T) {
		faultCase(t, `
.program f
main:
    loadi r1, 0x700000
    loadb r2, [r1]
    halt
`, "segmentation fault")
	})
	t.Run("storeb unmapped", func(t *testing.T) {
		faultCase(t, `
.program f
main:
    loadi r1, 0x700000
    storeb [r1], r2
    halt
`, "segmentation fault")
	})
	t.Run("pop from unmapped sp", func(t *testing.T) {
		faultCase(t, `
.program f
main:
    loadi r1, 0x700000
    mov   sp, r1
    pop   r2
`, "segmentation fault")
	})
	t.Run("ret from unmapped sp", func(t *testing.T) {
		faultCase(t, `
.program f
main:
    loadi r1, 0x700000
    mov   sp, r1
    ret
`, "segmentation fault")
	})
	t.Run("leave with corrupt fp", func(t *testing.T) {
		faultCase(t, `
.program f
main:
    loadi r1, 0x700000
    mov   fp, r1
    leave
`, "segmentation fault")
	})
	t.Run("branch to garbage", func(t *testing.T) {
		faultCase(t, `
.program f
main:
    br 0x40
`, "instruction fetch")
	})
}

func TestBadBuiltinControlPanics(t *testing.T) {
	im, sp, th, env := harness(t, `
.program bad
main:
    callb exit
`)
	env.results[isa.BExit] = BuiltinResult{Ctl: Control(42)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bogus control")
		}
	}()
	Run(im, sp, th, env, 10)
}

func TestShiftMasking(t *testing.T) {
	// Shift counts use only the low 5 bits, like real 32-bit hardware.
	th, st, _, _ := run(t, `
.program sh
main:
    loadi r1, 1
    loadi r2, 33
    shl   r3, r1, r2   ; 1 << (33 & 31) = 2
    loadi r4, 0x80000000
    shr   r5, r4, r2   ; >> 1
    halt
`)
	if st.Kind != Exited || th.Regs.R[3] != 2 || th.Regs.R[5] != 0x40000000 {
		t.Fatalf("r3=%#x r5=%#x st=%v", th.Regs.R[3], th.Regs.R[5], st.Kind)
	}
}

func TestStatusKindStrings(t *testing.T) {
	for kind, want := range map[StatusKind]string{
		Running: "running", Yielded: "yielded", Blocked: "blocked",
		Exited: "exited", Faulted: "faulted", Migrating: "migrating",
	} {
		if kind.String() != want {
			t.Errorf("%d.String() = %q", kind, kind.String())
		}
	}
	if StatusKind(99).String() != "?" {
		t.Error("unknown status should be ?")
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("expected a panic containing %q", want)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want contains %q", msg, want)
		}
	}()
	f()
}

// corruptedRun loads a valid one-instruction program, overwrites that
// instruction behind the loader's back with bad, and runs it.
func corruptedRun(t *testing.T, bad isa.Instr) {
	t.Helper()
	im := isa.NewImage()
	lp, err := im.AddProgram("p", []isa.Instr{{Op: isa.OpNop}, {Op: isa.OpHalt}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	im.Code()[0] = bad
	sp := vmem.NewSpace()
	if err := sp.Mmap(layout.IsoBase, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	th := &Thread{Regs: &RegFile{PC: uint32(lp.Entry), SP: layout.IsoBase + layout.SlotSize}}
	Run(im, sp, th, &testEnv{}, 10)
}

// TestIllegalInstructionFaults: an undefined opcode never executes. The
// loader refuses it, and an interpreter that meets one anyway stops.
func TestIllegalInstructionFaults(t *testing.T) {
	im := isa.NewImage()
	_, err := im.AddProgram("ill", []isa.Instr{{Op: isa.Op(99)}}, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "illegal opcode") {
		t.Fatalf("err = %v, want an illegal opcode error", err)
	}
	if _, ok := im.Program("ill"); ok || im.CodeSize() != 0 {
		t.Fatal("rejected program was loaded")
	}
	mustPanic(t, "illegal instruction", func() { corruptedRun(t, isa.Instr{Op: isa.Op(99)}) })
}

// TestRegFilePanicsOnBogusRegister: a register operand outside the
// register file never reaches memory beside it. The loader refuses it,
// and an interpreter that meets one anyway panics.
func TestRegFilePanicsOnBogusRegister(t *testing.T) {
	for _, in := range []isa.Instr{
		{Op: isa.OpLoadI, Rd: isa.Reg(30), Imm: 1},
		{Op: isa.OpMov, Rd: isa.R1, Rs: isa.Reg(30)},
	} {
		im := isa.NewImage()
		if _, err := im.AddProgram("bad", []isa.Instr{in, {Op: isa.OpHalt}}, 0, nil); err == nil || !strings.Contains(err.Error(), "bad register") {
			t.Errorf("%v: err = %v, want a bad register error", in, err)
		}
		mustPanic(t, "index out of range", func() { corruptedRun(t, in) })
	}
}
