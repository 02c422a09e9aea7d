// Package vm interprets thread programs over the simulated address space.
//
// The interpreter is deliberately machine-like: the program counter, stack
// pointer and frame pointer are raw simulated addresses; CALL pushes the
// return address onto the simulated stack; ENTER pushes the caller's frame
// pointer (the "compiler-generated pointer chaining the stack frames" of the
// paper §2). A thread's complete execution state is therefore (a) the
// register file and (b) bytes in simulated memory — which is exactly what
// iso-address migration moves.
package vm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/vmem"
)

// RegFile is a thread's register state. While the thread runs, Run keeps
// it in a local register array and spills it back around every builtin
// call and on return; on freeze it is spilled into the in-memory thread
// descriptor.
type RegFile struct {
	R      [16]uint32
	SP, FP uint32
	PC     uint32
}

// regs is the interpreter's working copy of a register file, indexed by
// isa.Reg: the general registers, then SP and FP.
type regs [isa.NumRegs]uint32

// load copies rf into r and returns the PC.
func (r *regs) load(rf *RegFile) uint32 {
	*(*[16]uint32)(r[:16]) = rf.R
	r[isa.SP], r[isa.FP] = rf.SP, rf.FP
	return rf.PC
}

// spill writes r and pc back to rf.
func (r *regs) spill(rf *RegFile, pc uint32) {
	rf.R = *(*[16]uint32)(r[:16])
	rf.SP, rf.FP, rf.PC = r[isa.SP], r[isa.FP], pc
}

// StatusKind classifies why Run returned.
type StatusKind int

// Status kinds.
const (
	// Running: the instruction budget was exhausted; the thread is still
	// runnable (this is where preemption happens).
	Running StatusKind = iota
	// Yielded: the thread executed a yield builtin.
	Yielded
	// Blocked: a builtin parked the thread; the runtime will wake it.
	Blocked
	// Exited: the thread terminated (halt or exit builtin).
	Exited
	// Faulted: the thread hit a fatal error (segfault, bad opcode, ...).
	Faulted
	// Migrating: the thread requested migration to Status.Dest.
	Migrating
)

func (k StatusKind) String() string {
	switch k {
	case Running:
		return "running"
	case Yielded:
		return "yielded"
	case Blocked:
		return "blocked"
	case Exited:
		return "exited"
	case Faulted:
		return "faulted"
	case Migrating:
		return "migrating"
	}
	return "?"
}

// Status is the outcome of a Run call.
type Status struct {
	Kind StatusKind
	// Dest is the destination node for Kind == Migrating.
	Dest int
	// Fault holds the error for Kind == Faulted.
	Fault error
	// Instrs is the number of instructions executed during this run,
	// for cost accounting.
	Instrs int64
	// Builtins is the number of builtin calls executed during this run.
	Builtins int64
}

// Control tells the interpreter what to do after a builtin call.
type Control int

// Builtin control outcomes.
const (
	// CtlReturn: place Ret in r0 and continue.
	CtlReturn Control = iota
	// CtlYield: place Ret in r0 and yield the processor.
	CtlYield
	// CtlBlock: park the thread; the runtime sets r0 when it wakes it.
	CtlBlock
	// CtlExit: terminate the thread.
	CtlExit
	// CtlMigrate: freeze and migrate the thread to Dest. Execution
	// resumes after the builtin call on the destination node.
	CtlMigrate
	// CtlFault: kill the thread with Err.
	CtlFault
)

// BuiltinResult is the outcome of one runtime call.
type BuiltinResult struct {
	Ctl  Control
	Ret  uint32
	Dest int
	Err  error
}

// Env supplies the runtime half of the machine: the PM2 builtins. The
// callback runs on the node's actor, synchronously with the interpreter.
type Env interface {
	Builtin(id uint32, args [4]uint32) BuiltinResult
}

// Thread bundles what the interpreter needs to run one thread.
type Thread struct {
	Regs *RegFile
	// StackLimit is the lowest address the stack may grow to (the end of
	// the thread descriptor in its stack slot). Pushing below it is a
	// stack-overflow fault.
	StackLimit uint32
	// TLB caches the thread's pages between runs. Run syncs it to the
	// space at entry and after every builtin call, the only points
	// where memory can be unmapped under a running thread. A nil TLB
	// means a fresh one for this run.
	TLB *vmem.TLB
}

func fault(format string, args ...any) error {
	return fmt.Errorf("thread fault: %s", fmt.Sprintf(format, args...))
}

// Run interprets up to max instructions of thread t against image im and
// address space sp, dispatching builtins to env. It returns when the budget
// is exhausted or the thread yields, blocks, exits, faults, or migrates.
//
// The registers and the PC live in locals for the whole run. t.Regs is
// written before each builtin call (so the runtime sees the exact state
// as of the callb, with the PC past it), re-read after it (so register
// changes the runtime makes are visible), and written once more on
// return. On a fault the PC is past the faulting instruction, except for
// an instruction-fetch fault, where it is the address that failed.
//
// Word loads and stores try the thread's TLB inline and take its miss
// path (one page-map lookup, or a fault) only when that fails.
func Run(im *isa.Image, sp *vmem.Space, t *Thread, env Env, max int64) Status {
	var r regs
	rf := t.Regs
	pc := r.load(rf)
	code := im.Code()
	limit := t.StackLimit
	tlb := t.TLB
	if tlb == nil {
		tlb = new(vmem.TLB)
	}
	tlb.Sync(sp)
	var st Status
	var n int64
	// err is the fault that ends the run, if any; a builtin's
	// CtlFault sets st directly.
	var err error
loop:
	for n < max {
		off := pc - layout.CodeBase
		i := int(off / isa.InstrBytes)
		if off%isa.InstrBytes != 0 || i >= len(code) {
			err = fault("instruction fetch from %#08x", pc)
			break loop
		}
		in := code[i]
		pc += isa.InstrBytes
		n++

		switch in.Op {
		case isa.OpNop:

		case isa.OpLoadI:
			r[in.Rd] = in.Imm

		case isa.OpMov:
			r[in.Rd] = r[in.Rs]

		case isa.OpAdd:
			r[in.Rd] = r[in.Rs] + r[in.Rt]
		case isa.OpSub:
			r[in.Rd] = r[in.Rs] - r[in.Rt]
		case isa.OpMul:
			r[in.Rd] = r[in.Rs] * r[in.Rt]
		case isa.OpDiv, isa.OpMod:
			d := r[in.Rt]
			if d == 0 {
				err = fault("division by zero at %#08x", pc-isa.InstrBytes)
				break loop
			}
			if in.Op == isa.OpDiv {
				r[in.Rd] = r[in.Rs] / d
			} else {
				r[in.Rd] = r[in.Rs] % d
			}
		case isa.OpAnd:
			r[in.Rd] = r[in.Rs] & r[in.Rt]
		case isa.OpOr:
			r[in.Rd] = r[in.Rs] | r[in.Rt]
		case isa.OpXor:
			r[in.Rd] = r[in.Rs] ^ r[in.Rt]
		case isa.OpShl:
			r[in.Rd] = r[in.Rs] << (r[in.Rt] & 31)
		case isa.OpShr:
			r[in.Rd] = r[in.Rs] >> (r[in.Rt] & 31)

		case isa.OpAddI:
			r[in.Rd] = r[in.Rs] + in.Imm

		case isa.OpLoad:
			a := r[in.Rs] + in.Imm
			v, ok := tlb.Word(a)
			if !ok {
				if v, err = tlb.Load32(a); err != nil {
					break loop
				}
			}
			r[in.Rd] = v
		case isa.OpStore:
			a := r[in.Rd] + in.Imm
			if !tlb.SetWord(a, r[in.Rs]) {
				if err = tlb.Store32(a, r[in.Rs]); err != nil {
					break loop
				}
			}
		case isa.OpLoadB:
			var b byte
			if b, err = tlb.Load8(r[in.Rs] + in.Imm); err != nil {
				break loop
			}
			r[in.Rd] = uint32(b)
		case isa.OpStoreB:
			if err = tlb.Store8(r[in.Rd]+in.Imm, byte(r[in.Rs])); err != nil {
				break loop
			}

		case isa.OpBr:
			pc = in.Imm
		case isa.OpBeq:
			if r[in.Rs] == r[in.Rt] {
				pc = in.Imm
			}
		case isa.OpBne:
			if r[in.Rs] != r[in.Rt] {
				pc = in.Imm
			}
		case isa.OpBlt:
			if int32(r[in.Rs]) < int32(r[in.Rt]) {
				pc = in.Imm
			}
		case isa.OpBge:
			if int32(r[in.Rs]) >= int32(r[in.Rt]) {
				pc = in.Imm
			}
		case isa.OpBltU:
			if r[in.Rs] < r[in.Rt] {
				pc = in.Imm
			}
		case isa.OpBgeU:
			if r[in.Rs] >= r[in.Rt] {
				pc = in.Imm
			}

		case isa.OpPush:
			if !r.push(tlb, limit, r[in.Rs]) {
				if err = r.pushMiss(tlb, limit, r[in.Rs]); err != nil {
					break loop
				}
			}
		case isa.OpPop:
			v, ok := r.pop(tlb)
			if !ok {
				if v, err = r.popMiss(tlb); err != nil {
					break loop
				}
			}
			r[in.Rd] = v

		case isa.OpCall:
			if !r.push(tlb, limit, pc) {
				if err = r.pushMiss(tlb, limit, pc); err != nil {
					break loop
				}
			}
			pc = in.Imm
		case isa.OpRet:
			v, ok := r.pop(tlb)
			if !ok {
				if v, err = r.popMiss(tlb); err != nil {
					break loop
				}
			}
			pc = v

		case isa.OpEnter:
			// Push caller FP — the frame-chain pointer lives in
			// simulated stack memory from here on.
			if !r.push(tlb, limit, r[isa.FP]) {
				if err = r.pushMiss(tlb, limit, r[isa.FP]); err != nil {
					break loop
				}
			}
			r[isa.FP] = r[isa.SP]
			r[isa.SP] -= in.Imm
			if r[isa.SP] < limit || r[isa.SP] > r[isa.FP] {
				err = overflow(r[isa.SP], limit)
				break loop
			}
		case isa.OpLeave:
			r[isa.SP] = r[isa.FP]
			v, ok := r.pop(tlb)
			if !ok {
				if v, err = r.popMiss(tlb); err != nil {
					break loop
				}
			}
			r[isa.FP] = v

		case isa.OpCallB:
			st.Builtins++
			r.spill(rf, pc)
			res := env.Builtin(in.Imm, [4]uint32{r[1], r[2], r[3], r[4]})
			pc = r.load(rf)
			tlb.Sync(sp)
			switch res.Ctl {
			case CtlReturn:
				r[0] = res.Ret
			case CtlYield:
				r[0] = res.Ret
				st.Kind = Yielded
				break loop
			case CtlBlock:
				st.Kind = Blocked
				break loop
			case CtlExit:
				st.Kind = Exited
				break loop
			case CtlMigrate:
				st.Kind = Migrating
				st.Dest = res.Dest
				break loop
			case CtlFault:
				st.Kind = Faulted
				st.Fault = res.Err
				break loop
			default:
				panic(fmt.Sprintf("vm: bad builtin control %d", res.Ctl))
			}

		case isa.OpHalt:
			st.Kind = Exited
			break loop

		default:
			// isa.Image.AddProgram rejects undefined opcodes.
			panic(fmt.Sprintf("vm: illegal instruction %v at %#08x", in.Op, pc-isa.InstrBytes))
		}
	}
	if err != nil {
		st.Kind, st.Fault = Faulted, err
	}
	r.spill(rf, pc)
	st.Instrs = n
	return st
}

// push is the hit path of the one stack push (push, call, enter):
// sp -= 4, then mem32[sp] = v. It reports false, having stored nothing,
// if the push overflows or its word misses the TLB; pushMiss then
// finishes it. SP moves before the store, so a faulting push leaves it
// lowered.
func (r *regs) push(tlb *vmem.TLB, limit, v uint32) bool {
	s := r[isa.SP] - 4
	r[isa.SP] = s
	return s >= limit && tlb.SetWord(s, v)
}

// pushMiss finishes a push that push could not complete.
func (r *regs) pushMiss(tlb *vmem.TLB, limit, v uint32) error {
	s := r[isa.SP]
	if s < limit {
		return overflow(s, limit)
	}
	return tlb.Store32(s, v)
}

// pop is the hit path of the one stack pop (pop, ret, leave):
// v = mem32[sp], then sp += 4. It reports false, with SP unchanged, if
// the word misses the TLB; popMiss then finishes it.
func (r *regs) pop(tlb *vmem.TLB) (uint32, bool) {
	v, ok := tlb.Word(r[isa.SP])
	if ok {
		r[isa.SP] += 4
	}
	return v, ok
}

// popMiss finishes a pop that pop could not complete. A faulting pop
// leaves SP unchanged.
func (r *regs) popMiss(tlb *vmem.TLB) (uint32, error) {
	v, err := tlb.Load32(r[isa.SP])
	if err != nil {
		return 0, err
	}
	r[isa.SP] += 4
	return v, nil
}

// overflow is the stack-overflow fault of push and enter.
func overflow(sp, limit uint32) error {
	return fault("stack overflow (sp=%#08x limit=%#08x)", sp, limit)
}
