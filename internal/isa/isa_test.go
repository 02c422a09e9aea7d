package isa

import (
	"strings"
	"testing"

	"repro/internal/layout"
)

func TestRegisterNames(t *testing.T) {
	if R0.String() != "r0" || R15.String() != "r15" || SP.String() != "sp" || FP.String() != "fp" {
		t.Fatal("register names broken")
	}
	if !strings.Contains(Reg(99).String(), "?") {
		t.Fatal("invalid register should render with ?")
	}
}

func TestOpcodeNamesAndValidity(t *testing.T) {
	cases := map[Op]string{
		OpNop: "nop", OpLoadI: "loadi", OpAdd: "add", OpDiv: "div",
		OpLoad: "load", OpStoreB: "storeb", OpBltU: "bltu",
		OpCall: "call", OpEnter: "enter", OpCallB: "callb", OpHalt: "halt",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
		if !op.Valid() {
			t.Errorf("%v should be valid", op)
		}
	}
	if Op(200).Valid() {
		t.Error("op 200 should be invalid")
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpHalt}, "halt"},
		{Instr{Op: OpLoadI, Rd: R3, Imm: 0xff}, "loadi r3, 0xff"},
		{Instr{Op: OpAddI, Rd: R1, Rs: R2, Imm: 0xFFFFFFFC}, "addi r1, r2, -4"},
		{Instr{Op: OpMov, Rd: R1, Rs: R2}, "mov r1, r2"},
		{Instr{Op: OpLoad, Rd: R1, Rs: FP, Imm: 0xFFFFFFF8}, "load r1, [fp-8]"},
		{Instr{Op: OpStore, Rd: SP, Rs: R9, Imm: 12}, "store [sp+12], r9"},
		{Instr{Op: OpPush, Rs: R5}, "push r5"},
		{Instr{Op: OpPop, Rd: R6}, "pop r6"},
		{Instr{Op: OpEnter, Imm: 16}, "enter 16"},
		{Instr{Op: OpCallB, Imm: BIsomalloc}, "callb isomalloc"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestBuiltinTables(t *testing.T) {
	if Builtins["isomalloc"] != BIsomalloc || Builtins["migrate"] != BMigrate {
		t.Fatal("builtin name table broken")
	}
	if BuiltinName(BPrintf) != "printf" {
		t.Fatal("BuiltinName broken")
	}
	if !strings.Contains(BuiltinName(9999), "?") {
		t.Fatal("unknown builtin should render with ?")
	}
	// Names must be unique and ids contiguous from 1.
	seen := map[uint32]bool{}
	for name, id := range Builtins {
		if seen[id] {
			t.Errorf("duplicate builtin id %d", id)
		}
		seen[id] = true
		if BuiltinName(id) != name {
			t.Errorf("round trip failed for %q", name)
		}
	}
}

func TestImageAddProgram(t *testing.T) {
	im := NewImage()
	code := []Instr{{Op: OpNop}, {Op: OpHalt}}
	lp, err := im.AddProgram("a", code, 1, map[string]int{"end": 1})
	if err != nil {
		t.Fatal(err)
	}
	if lp.Base != layout.CodeBase || lp.Entry != lp.Base+InstrBytes || lp.N != 2 {
		t.Fatalf("lp = %+v", lp)
	}
	// Second program is laid out contiguously.
	lp2, err := im.AddProgram("b", code, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lp2.Base != lp.Base+Addr(2*InstrBytes) {
		t.Fatalf("lp2.Base = %#x", lp2.Base)
	}
	if im.CodeSize() != 4 {
		t.Fatalf("CodeSize = %d", im.CodeSize())
	}
	// Label re-export.
	if a, ok := im.Label("a.end"); !ok || a != lp.Base+InstrBytes {
		t.Fatalf("Label = %#x, %v", a, ok)
	}
	// Lookup helpers.
	if p, ok := im.Program("a"); !ok || p != lp {
		t.Fatal("Program lookup broken")
	}
	if e, ok := im.EntryOf("b"); !ok || e != lp2.Entry {
		t.Fatalf("EntryOf = %#x", e)
	}
	if _, ok := im.EntryOf("zzz"); ok {
		t.Fatal("EntryOf on unknown program")
	}
	if p, ok := im.ProgramAt(lp2.Base); !ok || p.Name != "b" {
		t.Fatal("ProgramAt broken")
	}
	if _, ok := im.ProgramAt(0xF000_0000); ok {
		t.Fatal("ProgramAt outside code")
	}
}

func TestImageAddProgramErrors(t *testing.T) {
	im := NewImage()
	code := []Instr{{Op: OpHalt}}
	if _, err := im.AddProgram("", code, 0, nil); err == nil {
		t.Error("empty name must fail")
	}
	if _, err := im.AddProgram("x", nil, 0, nil); err == nil {
		t.Error("empty code must fail")
	}
	if _, err := im.AddProgram("x", code, 5, nil); err == nil {
		t.Error("bad entry must fail")
	}
	if _, err := im.AddProgram("x", code, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := im.AddProgram("x", code, 0, nil); err == nil {
		t.Error("duplicate must fail")
	}
}

// TestAddProgramRejectsBadOperands pins the load-time checks the
// interpreter relies on: an undefined opcode and a register operand
// outside the register file are errors, and the image is left unchanged.
func TestAddProgramRejectsBadOperands(t *testing.T) {
	for _, c := range []struct {
		name string
		in   Instr
		want string
	}{
		{"opcode", Instr{Op: opMax}, "illegal opcode"},
		{"opcode 99", Instr{Op: Op(99)}, "illegal opcode"},
		{"rd", Instr{Op: OpLoadI, Rd: NumRegs}, "bad register"},
		{"rs", Instr{Op: OpMov, Rd: R1, Rs: Reg(200)}, "bad register"},
		{"rt", Instr{Op: OpAdd, Rd: R1, Rs: R2, Rt: NumRegs}, "bad register"},
	} {
		im := NewImage()
		_, err := im.AddProgram("p", []Instr{{Op: OpNop}, c.in, {Op: OpHalt}}, 0, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "instruction 1") {
			t.Errorf("%s: err = %v, want %q at instruction 1", c.name, err, c.want)
		}
		if im.CodeSize() != 0 {
			t.Errorf("%s: rejected program left %d instructions in the image", c.name, im.CodeSize())
		}
		if _, ok := im.Program("p"); ok {
			t.Errorf("%s: rejected program was registered", c.name)
		}
	}
	// The highest valid register and opcode load.
	im := NewImage()
	if _, err := im.AddProgram("ok", []Instr{{Op: OpHalt - 1, Imm: BExit}, {Op: OpMov, Rd: FP, Rs: SP}, {Op: opMax - 1}}, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstrAt(t *testing.T) {
	im := NewImage()
	lp, _ := im.AddProgram("p", []Instr{{Op: OpNop}, {Op: OpHalt}}, 0, nil)
	if in, ok := im.InstrAt(lp.Base); !ok || in.Op != OpNop {
		t.Fatal("fetch 0 broken")
	}
	if in, ok := im.InstrAt(lp.Base + InstrBytes); !ok || in.Op != OpHalt {
		t.Fatal("fetch 1 broken")
	}
	if _, ok := im.InstrAt(lp.Base + 2*InstrBytes); ok {
		t.Fatal("fetch past end should fail")
	}
	if _, ok := im.InstrAt(lp.Base + 1); ok {
		t.Fatal("misaligned fetch should fail")
	}
	if _, ok := im.InstrAt(0); ok {
		t.Fatal("fetch below code base should fail")
	}
	if code := im.Code(); len(code) != 2 || code[(lp.Base+InstrBytes-layout.CodeBase)/InstrBytes].Op != OpHalt {
		t.Fatalf("Code() = %v", code)
	}
}

func TestInternString(t *testing.T) {
	im := NewImage()
	a := im.InternString("hello")
	b := im.InternString("world")
	c := im.InternString("hello")
	if a == b {
		t.Fatal("distinct strings share an address")
	}
	if a != c {
		t.Fatal("identical strings not deduped")
	}
	data := im.DataImage()
	if string(data[a-layout.DataBase:a-layout.DataBase+6]) != "hello\x00" {
		t.Fatalf("data image = %q", data)
	}
}

func TestSealBlocksMutation(t *testing.T) {
	im := NewImage()
	im.AddProgram("p", []Instr{{Op: OpHalt}}, 0, nil)
	im.InternString("ok")
	im.Seal()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddProgram after Seal should panic")
			}
		}()
		im.AddProgram("q", []Instr{{Op: OpHalt}}, 0, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("InternString of a new string after Seal should panic")
			}
		}()
		im.InternString("new")
	}()
	// Interning an existing string is a read: allowed.
	if im.InternString("ok") == 0 {
		t.Error("existing string lookup should still work")
	}
}
