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
	"repro/internal/vmem"
)

// RegFile is a thread's register state. It is cached in Go while the thread
// runs and spilled into the in-memory thread descriptor on freeze.
type RegFile struct {
	R      [16]uint32
	SP, FP uint32
	PC     uint32
}

// Get reads general register r (including SP/FP). The r < 16 case is
// kept small enough to inline into the interpreter loop.
func (rf *RegFile) Get(r isa.Reg) uint32 {
	if r < 16 {
		return rf.R[r]
	}
	return *rf.special(r)
}

// Set writes general register r (including SP/FP).
func (rf *RegFile) Set(r isa.Reg, v uint32) {
	if r < 16 {
		rf.R[r] = v
		return
	}
	*rf.special(r) = v
}

// special returns SP or FP for r, and panics on any other register
// above the general ones. It stays out of line so that Get and Set
// inline.
//
//go:noinline
func (rf *RegFile) special(r isa.Reg) *uint32 {
	switch r {
	case isa.SP:
		return &rf.SP
	case isa.FP:
		return &rf.FP
	}
	panic(fmt.Sprintf("vm: bad register %d", r))
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
func Run(im *isa.Image, sp *vmem.Space, t *Thread, env Env, max int64) Status {
	rf := t.Regs
	var st Status
	for st.Instrs < max {
		in, ok := im.InstrAt(rf.PC)
		if !ok {
			st.Kind = Faulted
			st.Fault = fault("instruction fetch from %#08x", rf.PC)
			return st
		}
		rf.PC += isa.InstrBytes
		st.Instrs++

		switch in.Op {
		case isa.OpNop:

		case isa.OpLoadI:
			rf.Set(in.Rd, in.Imm)

		case isa.OpMov:
			rf.Set(in.Rd, rf.Get(in.Rs))

		case isa.OpAdd:
			rf.Set(in.Rd, rf.Get(in.Rs)+rf.Get(in.Rt))
		case isa.OpSub:
			rf.Set(in.Rd, rf.Get(in.Rs)-rf.Get(in.Rt))
		case isa.OpMul:
			rf.Set(in.Rd, rf.Get(in.Rs)*rf.Get(in.Rt))
		case isa.OpDiv, isa.OpMod:
			d := rf.Get(in.Rt)
			if d == 0 {
				st.Kind = Faulted
				st.Fault = fault("division by zero at %#08x", rf.PC-isa.InstrBytes)
				return st
			}
			if in.Op == isa.OpDiv {
				rf.Set(in.Rd, rf.Get(in.Rs)/d)
			} else {
				rf.Set(in.Rd, rf.Get(in.Rs)%d)
			}
		case isa.OpAnd:
			rf.Set(in.Rd, rf.Get(in.Rs)&rf.Get(in.Rt))
		case isa.OpOr:
			rf.Set(in.Rd, rf.Get(in.Rs)|rf.Get(in.Rt))
		case isa.OpXor:
			rf.Set(in.Rd, rf.Get(in.Rs)^rf.Get(in.Rt))
		case isa.OpShl:
			rf.Set(in.Rd, rf.Get(in.Rs)<<(rf.Get(in.Rt)&31))
		case isa.OpShr:
			rf.Set(in.Rd, rf.Get(in.Rs)>>(rf.Get(in.Rt)&31))

		case isa.OpAddI:
			rf.Set(in.Rd, rf.Get(in.Rs)+in.Imm)

		case isa.OpLoad:
			v, err := sp.Load32(rf.Get(in.Rs) + in.Imm)
			if err != nil {
				st.Kind = Faulted
				st.Fault = err
				return st
			}
			rf.Set(in.Rd, v)
		case isa.OpStore:
			if err := sp.Store32(rf.Get(in.Rd)+in.Imm, rf.Get(in.Rs)); err != nil {
				st.Kind = Faulted
				st.Fault = err
				return st
			}
		case isa.OpLoadB:
			v, err := sp.Load8(rf.Get(in.Rs) + in.Imm)
			if err != nil {
				st.Kind = Faulted
				st.Fault = err
				return st
			}
			rf.Set(in.Rd, uint32(v))
		case isa.OpStoreB:
			if err := sp.Store8(rf.Get(in.Rd)+in.Imm, byte(rf.Get(in.Rs))); err != nil {
				st.Kind = Faulted
				st.Fault = err
				return st
			}

		case isa.OpBr:
			rf.PC = in.Imm
		case isa.OpBeq:
			if rf.Get(in.Rs) == rf.Get(in.Rt) {
				rf.PC = in.Imm
			}
		case isa.OpBne:
			if rf.Get(in.Rs) != rf.Get(in.Rt) {
				rf.PC = in.Imm
			}
		case isa.OpBlt:
			if int32(rf.Get(in.Rs)) < int32(rf.Get(in.Rt)) {
				rf.PC = in.Imm
			}
		case isa.OpBge:
			if int32(rf.Get(in.Rs)) >= int32(rf.Get(in.Rt)) {
				rf.PC = in.Imm
			}
		case isa.OpBltU:
			if rf.Get(in.Rs) < rf.Get(in.Rt) {
				rf.PC = in.Imm
			}
		case isa.OpBgeU:
			if rf.Get(in.Rs) >= rf.Get(in.Rt) {
				rf.PC = in.Imm
			}

		case isa.OpPush:
			if err := push(sp, t, rf.Get(in.Rs)); err != nil {
				st.Kind = Faulted
				st.Fault = err
				return st
			}
		case isa.OpPop:
			v, err := pop(sp, rf)
			if err != nil {
				st.Kind = Faulted
				st.Fault = err
				return st
			}
			rf.Set(in.Rd, v)

		case isa.OpCall:
			if err := push(sp, t, rf.PC); err != nil {
				st.Kind = Faulted
				st.Fault = err
				return st
			}
			rf.PC = in.Imm
		case isa.OpRet:
			v, err := pop(sp, rf)
			if err != nil {
				st.Kind = Faulted
				st.Fault = err
				return st
			}
			rf.PC = v

		case isa.OpEnter:
			// Push caller FP — the frame-chain pointer lives in
			// simulated stack memory from here on.
			if err := push(sp, t, rf.FP); err != nil {
				st.Kind = Faulted
				st.Fault = err
				return st
			}
			rf.FP = rf.SP
			rf.SP -= in.Imm
			if rf.SP < t.StackLimit || rf.SP > rf.FP {
				st.Kind = Faulted
				st.Fault = fault("stack overflow (sp=%#08x limit=%#08x)", rf.SP, t.StackLimit)
				return st
			}
		case isa.OpLeave:
			rf.SP = rf.FP
			v, err := pop(sp, rf)
			if err != nil {
				st.Kind = Faulted
				st.Fault = err
				return st
			}
			rf.FP = v

		case isa.OpCallB:
			st.Builtins++
			res := env.Builtin(in.Imm, [4]uint32{rf.R[1], rf.R[2], rf.R[3], rf.R[4]})
			switch res.Ctl {
			case CtlReturn:
				rf.R[0] = res.Ret
			case CtlYield:
				rf.R[0] = res.Ret
				st.Kind = Yielded
				return st
			case CtlBlock:
				st.Kind = Blocked
				return st
			case CtlExit:
				st.Kind = Exited
				return st
			case CtlMigrate:
				st.Kind = Migrating
				st.Dest = res.Dest
				return st
			case CtlFault:
				st.Kind = Faulted
				st.Fault = res.Err
				return st
			default:
				panic(fmt.Sprintf("vm: bad builtin control %d", res.Ctl))
			}

		case isa.OpHalt:
			st.Kind = Exited
			return st

		default:
			st.Kind = Faulted
			st.Fault = fault("illegal instruction %v at %#08x", in.Op, rf.PC-isa.InstrBytes)
			return st
		}
	}
	st.Kind = Running
	return st
}

func push(sp *vmem.Space, t *Thread, v uint32) error {
	rf := t.Regs
	rf.SP -= 4
	if rf.SP < t.StackLimit {
		return fault("stack overflow (sp=%#08x limit=%#08x)", rf.SP, t.StackLimit)
	}
	return sp.Store32(rf.SP, v)
}

func pop(sp *vmem.Space, rf *RegFile) (uint32, error) {
	v, err := sp.Load32(rf.SP)
	if err != nil {
		return 0, err
	}
	rf.SP += 4
	return v, nil
}
