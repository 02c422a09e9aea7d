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
func Run(im *isa.Image, sp *vmem.Space, t *Thread, env Env, max int64) Status {
	var r regs
	rf := t.Regs
	pc := r.load(rf)
	code := im.Code()
	limit := t.StackLimit
	var st Status
	var n int64
loop:
	for n < max {
		off := pc - layout.CodeBase
		i := int(off / isa.InstrBytes)
		if off%isa.InstrBytes != 0 || i >= len(code) {
			st.Kind = Faulted
			st.Fault = fault("instruction fetch from %#08x", pc)
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
				st.Kind = Faulted
				st.Fault = fault("division by zero at %#08x", pc-isa.InstrBytes)
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
			v, err := sp.Load32(r[in.Rs] + in.Imm)
			if err != nil {
				st.Kind, st.Fault = Faulted, err
				break loop
			}
			r[in.Rd] = v
		case isa.OpStore:
			if err := sp.Store32(r[in.Rd]+in.Imm, r[in.Rs]); err != nil {
				st.Kind, st.Fault = Faulted, err
				break loop
			}
		case isa.OpLoadB:
			v, err := sp.Load8(r[in.Rs] + in.Imm)
			if err != nil {
				st.Kind, st.Fault = Faulted, err
				break loop
			}
			r[in.Rd] = uint32(v)
		case isa.OpStoreB:
			if err := sp.Store8(r[in.Rd]+in.Imm, byte(r[in.Rs])); err != nil {
				st.Kind, st.Fault = Faulted, err
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
			if err := r.push(sp, limit, r[in.Rs]); err != nil {
				st.Kind, st.Fault = Faulted, err
				break loop
			}
		case isa.OpPop:
			v, err := r.pop(sp)
			if err != nil {
				st.Kind, st.Fault = Faulted, err
				break loop
			}
			r[in.Rd] = v

		case isa.OpCall:
			if err := r.push(sp, limit, pc); err != nil {
				st.Kind, st.Fault = Faulted, err
				break loop
			}
			pc = in.Imm
		case isa.OpRet:
			v, err := r.pop(sp)
			if err != nil {
				st.Kind, st.Fault = Faulted, err
				break loop
			}
			pc = v

		case isa.OpEnter:
			// Push caller FP — the frame-chain pointer lives in
			// simulated stack memory from here on.
			if err := r.push(sp, limit, r[isa.FP]); err != nil {
				st.Kind, st.Fault = Faulted, err
				break loop
			}
			r[isa.FP] = r[isa.SP]
			r[isa.SP] -= in.Imm
			if r[isa.SP] < limit || r[isa.SP] > r[isa.FP] {
				st.Kind, st.Fault = Faulted, overflow(r[isa.SP], limit)
				break loop
			}
		case isa.OpLeave:
			r[isa.SP] = r[isa.FP]
			v, err := r.pop(sp)
			if err != nil {
				st.Kind, st.Fault = Faulted, err
				break loop
			}
			r[isa.FP] = v

		case isa.OpCallB:
			st.Builtins++
			r.spill(rf, pc)
			res := env.Builtin(in.Imm, [4]uint32{r[1], r[2], r[3], r[4]})
			pc = r.load(rf)
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
	r.spill(rf, pc)
	st.Instrs = n
	return st
}

// push is the one stack-push path (push, call, enter): sp -= 4, then
// mem32[sp] = v. SP moves before the store, so a faulting push leaves it
// lowered.
func (r *regs) push(sp *vmem.Space, limit, v uint32) error {
	s := r[isa.SP] - 4
	r[isa.SP] = s
	if s < limit {
		return overflow(s, limit)
	}
	return sp.Store32(s, v)
}

// pop is the one stack-pop path (pop, ret, leave): v = mem32[sp], then
// sp += 4. A faulting pop leaves SP unchanged.
func (r *regs) pop(sp *vmem.Space) (uint32, error) {
	v, err := sp.Load32(r[isa.SP])
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
