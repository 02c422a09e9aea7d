package isa

import (
	"fmt"

	"repro/internal/layout"
)

// Addr is a simulated virtual address.
type Addr = layout.Addr

// Image is the replicated SPMD binary: all loaded programs laid out
// contiguously in the code region, plus the static data segment (string
// table). Per the paper's rule 1, the same image is loaded at the same
// virtual addresses on every node of a cluster, so code and data addresses
// never need translation on migration. An Image is built once, before the
// cluster starts, and is read-only afterwards.
type Image struct {
	instrs   []Instr
	programs map[string]*LoadedProgram
	labels   map[string]Addr // "prog.label" → code address
	data     []byte          // data segment, mapped at layout.DataBase
	strings  map[string]Addr // interned string → data address
	sealed   bool
}

// LoadedProgram describes one program resolved into the image.
type LoadedProgram struct {
	Name string
	// Base is the code address of the program's first instruction.
	Base Addr
	// Entry is the code address threads start at.
	Entry Addr
	// N is the instruction count.
	N int
}

// NewImage returns an empty binary image.
func NewImage() *Image {
	return &Image{
		programs: make(map[string]*LoadedProgram),
		labels:   make(map[string]Addr),
		strings:  make(map[string]Addr),
	}
}

// Seal marks the image immutable; the cluster seals it at start-up.
func (im *Image) Seal() { im.sealed = true }

func (im *Image) mustMutable() {
	if im.sealed {
		panic("isa: image mutated after cluster start (SPMD images must be identical on all nodes)")
	}
}

// Top returns the next free code address.
func (im *Image) Top() Addr {
	return layout.CodeBase + Addr(len(im.instrs)*InstrBytes)
}

// AddProgram appends a program's instructions to the image. code must
// already be fully resolved (absolute addresses in branch/call immediates);
// entry is the instruction index of the entry point; labels maps local label
// names to instruction indices and is re-exported as "name.label". An
// undefined opcode or a register operand outside the register file is
// rejected here, so the interpreter never meets one.
func (im *Image) AddProgram(name string, code []Instr, entry int, labels map[string]int) (*LoadedProgram, error) {
	im.mustMutable()
	if name == "" {
		return nil, fmt.Errorf("isa: empty program name")
	}
	if _, dup := im.programs[name]; dup {
		return nil, fmt.Errorf("isa: duplicate program %q", name)
	}
	if len(code) == 0 {
		return nil, fmt.Errorf("isa: program %q has no instructions", name)
	}
	if entry < 0 || entry >= len(code) {
		return nil, fmt.Errorf("isa: program %q entry %d out of range", name, entry)
	}
	for i, in := range code {
		if !in.Op.Valid() {
			return nil, fmt.Errorf("isa: program %q instruction %d: illegal opcode %v", name, i, in.Op)
		}
		if in.Rd >= NumRegs || in.Rs >= NumRegs || in.Rt >= NumRegs {
			return nil, fmt.Errorf("isa: program %q instruction %d: bad register in %v", name, i, in)
		}
	}
	base := im.Top()
	if uint64(base)+uint64(len(code)*InstrBytes) > uint64(layout.CodeEnd) {
		return nil, fmt.Errorf("isa: code region overflow loading %q", name)
	}
	im.instrs = append(im.instrs, code...)
	lp := &LoadedProgram{
		Name:  name,
		Base:  base,
		Entry: base + Addr(entry*InstrBytes),
		N:     len(code),
	}
	im.programs[name] = lp
	for l, idx := range labels {
		im.labels[name+"."+l] = base + Addr(idx*InstrBytes)
	}
	return lp, nil
}

// Program returns the loaded program named name.
func (im *Image) Program(name string) (*LoadedProgram, bool) {
	p, ok := im.programs[name]
	return p, ok
}

// EntryOf returns the entry address of program name.
func (im *Image) EntryOf(name string) (Addr, bool) {
	p, ok := im.programs[name]
	if !ok {
		return 0, false
	}
	return p.Entry, true
}

// Label resolves a fully-qualified "prog.label" code address.
func (im *Image) Label(qualified string) (Addr, bool) {
	a, ok := im.labels[qualified]
	return a, ok
}

// InstrAt fetches the instruction at code address addr. ok is false for
// addresses outside the loaded image or misaligned — an instruction-fetch
// fault.
func (im *Image) InstrAt(addr Addr) (Instr, bool) {
	if addr < layout.CodeBase || addr%InstrBytes != 0 {
		return Instr{}, false
	}
	idx := int(addr-layout.CodeBase) / InstrBytes
	if idx >= len(im.instrs) {
		return Instr{}, false
	}
	return im.instrs[idx], true
}

// Code returns the loaded instructions; code address a holds
// Code()[(a-layout.CodeBase)/InstrBytes]. The interpreter fetches from it
// directly. The caller must not modify it.
func (im *Image) Code() []Instr { return im.instrs }

// ProgramAt returns the program containing code address addr, for
// diagnostics.
func (im *Image) ProgramAt(addr Addr) (*LoadedProgram, bool) {
	for _, p := range im.programs {
		if addr >= p.Base && addr < p.Base+Addr(p.N*InstrBytes) {
			return p, true
		}
	}
	return nil, false
}

// InternString places a NUL-terminated string in the data segment (deduped)
// and returns its address.
func (im *Image) InternString(s string) Addr {
	if a, ok := im.strings[s]; ok {
		return a
	}
	im.mustMutable()
	a := layout.DataBase + Addr(len(im.data))
	need := len(im.data) + len(s) + 1
	if uint64(layout.DataBase)+uint64(need) > uint64(layout.DataEnd) {
		panic("isa: data region overflow")
	}
	im.data = append(im.data, s...)
	im.data = append(im.data, 0)
	im.strings[s] = a
	return a
}

// DataImage returns the static data segment to map at layout.DataBase on
// every node. The caller must not modify it.
func (im *Image) DataImage() []byte { return im.data }

// CodeSize returns the number of loaded instructions.
func (im *Image) CodeSize() int { return len(im.instrs) }
