// Package marcel reproduces Marcel, PM2's user-level thread library: thread
// creation, round-robin scheduling with quantum preemption, join, freeze and
// thaw.
//
// A thread's authoritative state lives in simulated memory: its descriptor
// (registers, program counter, stack and frame pointers, slot-list head) is
// stored at a fixed offset inside its stack slot, and its stack grows down
// from the slot end. The Go-side Thread object is merely a cache that is
// spilled into the descriptor on freeze and reloaded on thaw — which is
// exactly why migration can move a thread by copying slot bytes: Thaw on the
// destination node reconstructs everything from memory at the same
// addresses (paper §2: a thread is "a set of resources: its state descriptor
// and its private execution stack").
package marcel

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// Addr is a simulated virtual address.
type Addr = layout.Addr

// Thread descriptor layout, at stackSlotBase + core.SlotHeaderSize. All
// fields are 32-bit little-endian words in simulated memory.
const (
	// DescMagic marks a valid descriptor.
	DescMagic = 0xDE5C0001

	dMagic    = 0
	dTID      = 4
	dPC       = 8
	dSP       = 12
	dFP       = 16
	dStatus   = 20
	dSlotHead = 24 // head of the thread's slot list (its stack slot)
	dEntry    = 28
	dArg      = 32
	dRegs     = 36 // 16 words

	// DescSize is the reserved descriptor area inside the stack slot.
	DescSize = 128

	// Exported field offsets for runtime components that patch frozen
	// descriptors (the relocation baseline).
	DescOffPC       = dPC
	DescOffSP       = dSP
	DescOffFP       = dFP
	DescOffSlotHead = dSlotHead
)

// Descriptor status words (informational; the Go scheduler state is
// authoritative while the thread is resident).
const (
	StatusReady   = 1
	StatusRunning = 2
	StatusBlocked = 3
	StatusExited  = 4
	StatusFrozen  = 5
)

// Thread is the resident, Go-side view of one PM2 thread.
type Thread struct {
	// TID is the cluster-unique thread id.
	TID uint32
	// Desc is the descriptor address — the value of marcel_self(), and
	// stable across migrations thanks to iso-address allocation.
	Desc Addr
	// Regs caches the register file while the thread is resident.
	Regs vm.RegFile
	// Entry and Arg record the start configuration (for diagnostics).
	Entry Addr
	Arg   uint32
	// MigrateTo is the pending preemptive-migration destination (-1 =
	// none); checked at the next quantum boundary.
	MigrateTo int
	// TLB caches the pages the thread touches while it is runnable. It
	// is reset whenever the thread leaves the run queue (block, exit,
	// fault, detach), so a parked or departed thread pins no page.
	TLB vmem.TLB

	ready   bool
	blocked bool
}

// Blocked reports whether the thread is parked waiting for the runtime.
func (t *Thread) Blocked() bool { return t.blocked }

// StackBase returns the thread's stack slot base.
func (t *Thread) StackBase() Addr { return t.Desc - core.SlotHeaderSize }

// StackLimit returns the lowest valid stack address.
func (t *Thread) StackLimit() Addr { return t.Desc + DescSize }

// HeadAddr returns the simulated address of the slot-list head pointer.
func (t *Thread) HeadAddr() Addr { return t.Desc + dSlotHead }

// Hooks connect the scheduler to the runtime (PM2).
type Hooks struct {
	// Exit runs after a thread terminates and its slots are released.
	Exit func(t *Thread)
	// Fault runs when a thread dies on an error (segfault, ...). The
	// thread's slots are released after the hook returns.
	Fault func(t *Thread, err error)
	// Migrate runs when a thread must leave this node (voluntary
	// pm2_migrate or preemptive request). The scheduler has already
	// frozen the thread and removed it from its tables; the hook packs
	// and ships it.
	Migrate func(t *Thread, dest int)
}

// Config parameterizes a scheduler.
type Config struct {
	NodeID int
	// Quantum is the preemption budget in instructions per dispatch.
	Quantum int64
	Model   *cost.Model
}

// Scheduler is one node's thread scheduler.
type Scheduler struct {
	cfg     Config
	sp      *vmem.Space
	im      *isa.Image
	ns      *core.NodeSlots
	ch      core.Charger
	env     vm.Env
	hooks   Hooks
	runq    []*Thread
	threads map[uint32]*Thread
	current *Thread
	joiners map[uint32][]*Thread
	exited  map[uint32]bool
	nextSeq uint32
	// nBlocked counts resident threads with blocked set (Runnable).
	nBlocked int
	// stats
	created, finished, faulted, dispatches uint64
	instrs                                 uint64
}

// NewScheduler builds a scheduler over the node's space, image and slot
// layer. env (the builtin dispatcher) and hooks are set by the runtime
// before any thread runs.
func NewScheduler(sp *vmem.Space, im *isa.Image, ns *core.NodeSlots, ch core.Charger, cfg Config) *Scheduler {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 64
	}
	if cfg.Model == nil {
		cfg.Model = cost.Default()
	}
	return &Scheduler{
		cfg:     cfg,
		sp:      sp,
		im:      im,
		ns:      ns,
		ch:      ch,
		threads: make(map[uint32]*Thread),
		joiners: make(map[uint32][]*Thread),
		exited:  make(map[uint32]bool),
	}
}

// SetEnv installs the builtin dispatcher (the PM2 runtime).
func (s *Scheduler) SetEnv(env vm.Env) { s.env = env }

// SetHooks installs the runtime hooks.
func (s *Scheduler) SetHooks(h Hooks) { s.hooks = h }

// Arena returns the block-layer view of thread t's slots.
func (s *Scheduler) Arena(t *Thread) *core.Arena {
	return core.NewArena(s.sp, s.ch, s.cfg.Model, t.HeadAddr())
}

// Current returns the thread currently dispatched, if any.
func (s *Scheduler) Current() *Thread { return s.current }

// Ready reports whether any thread is runnable.
func (s *Scheduler) Ready() bool { return len(s.runq) > 0 }

// Threads returns the number of resident threads.
func (s *Scheduler) Threads() int { return len(s.threads) }

// Runnable returns the number of resident threads that are not blocked
// (the load signal placement policies use to spot starving nodes). The
// count is maintained incrementally so load sampling stays O(1) per
// node; CheckCounters cross-checks it against a full walk.
func (s *Scheduler) Runnable() int { return len(s.threads) - s.nBlocked }

// setBlocked flips a thread's blocked flag, keeping the counter exact
// even when a transition is signalled twice (Block followed by the
// dispatcher observing vm.Blocked).
func (s *Scheduler) setBlocked(t *Thread, blocked bool) {
	if t.blocked == blocked {
		return
	}
	t.blocked = blocked
	if blocked {
		s.nBlocked++
	} else {
		s.nBlocked--
	}
}

// CheckCounters validates the incremental runnable accounting against a
// full thread walk.
func (s *Scheduler) CheckCounters() error {
	walked := 0
	for _, t := range s.threads {
		if t.blocked {
			walked++
		}
	}
	if walked != s.nBlocked {
		return fmt.Errorf("marcel: blocked counter %d, walk found %d", s.nBlocked, walked)
	}
	return nil
}

// Lookup finds a resident thread by id.
func (s *Scheduler) Lookup(tid uint32) (*Thread, bool) {
	t, ok := s.threads[tid]
	return t, ok
}

// Snapshot returns the resident threads in ascending TID order (a stable
// order keeps the simulation deterministic).
func (s *Scheduler) Snapshot() []*Thread {
	out := make([]*Thread, 0, len(s.threads))
	for _, t := range s.threads {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out
}

// Stats returns counters: threads created here, finished, faulted,
// dispatches and instructions executed.
func (s *Scheduler) Stats() (created, finished, faulted, dispatches, instrs uint64) {
	return s.created, s.finished, s.faulted, s.dispatches, s.instrs
}

// RestoreStats installs counters captured by Stats — restore-time
// state installation only.
func (s *Scheduler) RestoreStats(created, finished, faulted, dispatches, instrs uint64) {
	s.created, s.finished, s.faulted, s.dispatches, s.instrs =
		created, finished, faulted, dispatches, instrs
}

// TLBMisses returns the TLB misses of the resident threads, summed.
func (s *Scheduler) TLBMisses() uint64 {
	var n uint64
	for _, t := range s.threads {
		n += t.TLB.Misses()
	}
	return n
}

// NextSeq returns the TID sequence counter for checkpointing.
func (s *Scheduler) NextSeq() uint32 { return s.nextSeq }

// RestoreNextSeq installs a TID sequence counter captured by NextSeq,
// so threads created after a restore get the same ids as in the
// uninterrupted run.
func (s *Scheduler) RestoreNextSeq(v uint32) { s.nextSeq = v }

// ExitedTIDs returns the ids of threads that terminated here, in
// ascending order — the join bookkeeping a checkpoint must carry so a
// restored joiner still sees its target as exited.
func (s *Scheduler) ExitedTIDs() []uint32 {
	out := make([]uint32, 0, len(s.exited))
	for tid := range s.exited {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RestoreExited installs an exited-thread set captured by ExitedTIDs.
func (s *Scheduler) RestoreExited(tids []uint32) {
	for _, tid := range tids {
		s.exited[tid] = true
	}
}

// ErrNoThreadSlots wraps core.ErrNoSlots for thread creation.
var ErrNoThreadSlots = errors.New("marcel: no free slot for thread stack")

// Create starts a thread running the program at entry with r1 = arg. One
// slot is acquired locally for descriptor + stack — thread creation never
// negotiates (paper §4.1: "thread creation is a local operation ...
// irrespective of the slot distribution, since a single slot is required").
func (s *Scheduler) Create(entry Addr, arg uint32) (*Thread, error) {
	idx, err := s.ns.AcquireOne()
	if err != nil {
		return nil, ErrNoThreadSlots
	}
	base := layout.SlotBase(idx)
	desc := base + core.SlotHeaderSize

	s.nextSeq++
	tid := uint32(s.cfg.NodeID)<<20 | s.nextSeq
	t := &Thread{
		TID:       tid,
		Desc:      desc,
		Entry:     entry,
		Arg:       arg,
		MigrateTo: -1,
	}
	t.Regs.PC = entry
	t.Regs.SP = base + layout.SlotSize
	t.Regs.FP = 0
	t.Regs.R[1] = arg

	// Slot header + list head live inside the slot.
	ar := s.Arena(t)
	// The head pointer is inside the descriptor, which is inside the
	// freshly mapped slot; write descriptor first, then the header.
	if err := s.writeDescriptor(t, StatusReady); err != nil {
		return nil, err
	}
	if err := ar.InitStackSlot(base); err != nil {
		return nil, err
	}
	s.ch.Charge(cost.Fixed(s.cfg.Model.ThreadInitNs))
	// First touch of the descriptor/stack page.
	s.ch.Charge(s.cfg.Model.ZeroFill(layout.PageSize))

	s.threads[tid] = t
	s.enqueue(t)
	s.created++
	return t, nil
}

func (s *Scheduler) enqueue(t *Thread) {
	if t.ready {
		panic(fmt.Sprintf("marcel: thread %#x enqueued twice", t.TID))
	}
	t.ready = true
	s.setBlocked(t, false)
	s.runq = append(s.runq, t)
}

func (s *Scheduler) dequeue() *Thread {
	t := s.runq[0]
	s.runq = s.runq[:copy(s.runq, s.runq[1:])]
	t.ready = false
	return t
}

// writeDescriptor spills the full thread state into simulated memory.
func (s *Scheduler) writeDescriptor(t *Thread, status uint32) error {
	buf := make([]byte, DescSize)
	put := func(off int, v uint32) {
		buf[off] = byte(v)
		buf[off+1] = byte(v >> 8)
		buf[off+2] = byte(v >> 16)
		buf[off+3] = byte(v >> 24)
	}
	put(dMagic, DescMagic)
	put(dTID, t.TID)
	put(dPC, t.Regs.PC)
	put(dSP, t.Regs.SP)
	put(dFP, t.Regs.FP)
	put(dStatus, status)
	// dSlotHead is owned by the arena (InitStackSlot/attach): preserve
	// the current value if the descriptor already exists.
	head := uint32(0)
	if v, err := s.sp.Load32(t.Desc + dMagic); err == nil && v == DescMagic {
		if hv, err := s.sp.Load32(t.Desc + dSlotHead); err == nil {
			head = hv
		}
	}
	put(dSlotHead, head)
	put(dEntry, t.Entry)
	put(dArg, t.Arg)
	for i, r := range t.Regs.R {
		put(dRegs+4*i, r)
	}
	return s.sp.Write(t.Desc, buf)
}

// Freeze stops thread t and spills its registers into the descriptor; the
// thread's entire state is then in its slots, ready to be packed.
func (s *Scheduler) Freeze(t *Thread) error {
	s.ch.Charge(cost.Fixed(s.cfg.Model.FreezeNs))
	return s.writeDescriptor(t, StatusFrozen)
}

// Thaw reconstructs a thread from the descriptor at desc — the receiving
// half of a migration. The slots must already be installed. No pointer in
// the descriptor or the slots is adjusted: iso-addressing makes the bytes
// valid as-is.
func (s *Scheduler) Thaw(desc Addr) (*Thread, error) {
	buf, err := s.sp.ReadBytes(desc, DescSize)
	if err != nil {
		return nil, err
	}
	w := func(off int) uint32 {
		return uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24
	}
	if w(dMagic) != DescMagic {
		return nil, fmt.Errorf("marcel: bad descriptor magic at %#08x", desc)
	}
	t := &Thread{
		TID:       w(dTID),
		Desc:      desc,
		Entry:     w(dEntry),
		Arg:       w(dArg),
		MigrateTo: -1,
	}
	t.Regs.PC = w(dPC)
	t.Regs.SP = w(dSP)
	t.Regs.FP = w(dFP)
	for i := range t.Regs.R {
		t.Regs.R[i] = w(dRegs + 4*i)
	}
	if _, dup := s.threads[t.TID]; dup {
		return nil, fmt.Errorf("marcel: thread %#x already resident", t.TID)
	}
	s.threads[t.TID] = t
	s.enqueue(t)
	s.ch.Charge(cost.Fixed(s.cfg.Model.ResumeNs))
	return t, nil
}

// Detach removes a migrating thread from the scheduler tables (after
// Freeze, before its slots leave the node). A blocked thread leaves the
// blocked count with it: once detached it is this scheduler's thread no
// longer, and a waker still holding the pointer finds a stale target
// (see Wake).
func (s *Scheduler) Detach(t *Thread) {
	delete(s.threads, t.TID)
	t.TLB.Reset()
	if t.ready {
		for i, q := range s.runq {
			if q == t {
				s.runq = append(s.runq[:i], s.runq[i+1:]...)
				break
			}
		}
		t.ready = false
	}
	s.setBlocked(t, false)
}

// Block marks the current thread as waiting; the runtime wakes it later.
func (s *Scheduler) Block(t *Thread) {
	s.setBlocked(t, true)
}

// Wake makes a blocked thread runnable again with r0 = ret. A wake whose
// target is no longer resident — detached for migration or evacuation
// between blocking and waking — is dropped: the pointer is stale, and
// the thread it described now lives (runnable) on another node.
func (s *Scheduler) Wake(t *Thread, ret uint32) {
	if s.threads[t.TID] != t {
		return
	}
	if !t.blocked {
		panic(fmt.Sprintf("marcel: waking non-blocked thread %#x", t.TID))
	}
	t.Regs.R[0] = ret
	s.enqueue(t)
}

// Join makes the current thread wait for tid. It returns true if tid has
// already terminated (no blocking needed).
func (s *Scheduler) Join(waiter *Thread, tid uint32) bool {
	if s.exited[tid] {
		return true
	}
	if _, resident := s.threads[tid]; !resident {
		// Unknown thread (possibly migrated away): treat as exited to
		// avoid deadlock; PM2 applications join local workers only.
		return true
	}
	s.joiners[tid] = append(s.joiners[tid], waiter)
	s.Block(waiter)
	return false
}

// reap finishes a thread: wakes joiners and releases all its slots to the
// local node (paper Fig. 6 step 4).
func (s *Scheduler) reap(t *Thread) error {
	delete(s.threads, t.TID)
	s.exited[t.TID] = true
	for _, j := range s.joiners[t.TID] {
		s.Wake(j, 0)
	}
	delete(s.joiners, t.TID)
	return s.Arena(t).ReleaseAll(s.ns)
}

// RunOne dispatches the next ready thread for one quantum. It reports
// whether any thread was dispatched.
func (s *Scheduler) RunOne() bool {
	if s.env == nil {
		panic("marcel: scheduler has no Env")
	}
	for len(s.runq) > 0 {
		t := s.dequeue()
		// Preemptive migration request caught at the dispatch
		// boundary ("it may also be preemptively migrated by another
		// thread", paper §2).
		if t.MigrateTo >= 0 {
			s.startMigration(t, t.MigrateTo)
			continue
		}
		s.dispatch(t)
		return true
	}
	return false
}

func (s *Scheduler) dispatch(t *Thread) {
	s.current = t
	s.dispatches++
	s.ch.Charge(cost.Fixed(s.cfg.Model.CtxSwitchNs))
	th := &vm.Thread{Regs: &t.Regs, StackLimit: t.StackLimit(), TLB: &t.TLB}
	st := vm.Run(s.im, s.sp, th, s.env, s.cfg.Quantum)
	s.instrs += uint64(st.Instrs)
	s.ch.Charge(s.cfg.Model.Instr(st.Instrs))
	s.current = nil
	if st.Kind != vm.Running && st.Kind != vm.Yielded {
		t.TLB.Reset()
	}

	switch st.Kind {
	case vm.Running, vm.Yielded:
		if t.MigrateTo >= 0 {
			s.startMigration(t, t.MigrateTo)
			return
		}
		s.enqueue(t)
	case vm.Blocked:
		s.setBlocked(t, true)
	case vm.Exited:
		s.finished++
		if err := s.reap(t); err != nil {
			panic(fmt.Sprintf("marcel: reap %#x: %v", t.TID, err))
		}
		if s.hooks.Exit != nil {
			s.hooks.Exit(t)
		}
	case vm.Faulted:
		s.faulted++
		if s.hooks.Fault != nil {
			s.hooks.Fault(t, st.Fault)
		}
		if err := s.reap(t); err != nil {
			panic(fmt.Sprintf("marcel: reap faulted %#x: %v", t.TID, err))
		}
	case vm.Migrating:
		s.startMigration(t, st.Dest)
	default:
		panic("marcel: unexpected vm status")
	}
}

func (s *Scheduler) startMigration(t *Thread, dest int) {
	if s.hooks.Migrate == nil {
		panic("marcel: migration requested but no Migrate hook")
	}
	t.MigrateTo = -1
	if err := s.Freeze(t); err != nil {
		panic(fmt.Sprintf("marcel: freeze %#x: %v", t.TID, err))
	}
	s.Detach(t)
	s.hooks.Migrate(t, dest)
}

// RequestMigration marks thread tid for preemptive migration to dest at its
// next quantum boundary. It reports whether the thread was found.
func (s *Scheduler) RequestMigration(tid uint32, dest int) bool {
	t, ok := s.threads[tid]
	if !ok {
		return false
	}
	t.MigrateTo = dest
	return true
}
