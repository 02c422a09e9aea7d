package pm2

import (
	"fmt"
	"strings"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/madeleine"
	"repro/internal/marcel"
	"repro/internal/simtime"
	"repro/internal/vm"
	"repro/internal/vmem"
)

// Addr is a simulated virtual address.
type Addr = layout.Addr

// Madeleine channels used by the runtime services, all of them in one
// block; Endpoint.Handle and HandleCall panic on a duplicate at boot.
const (
	chMigrate      uint32 = 1  // one-way: packed thread
	chSpawn        uint32 = 2  // call: remote thread creation
	chLock         uint32 = 3  // call to node 0: system-wide critical section
	chUnlock       uint32 = 4  // one-way to node 0
	chBitmap       uint32 = 5  // call: gather a node's slot bitmap
	chBuy          uint32 = 6  // call: purchase a slot run from its owner
	chRelocMigrate uint32 = 7  // one-way: relocated stack (the relocation baseline)
	chSurrender    uint32 = 8  // call: return bitmap and give up all free slots (defragmentation)
	chInstall      uint32 = 9  // call: install a replacement bitmap (defragmentation)
	chGatherTree   uint32 = 10 // call: OR-merge and return a binomial subtree's bitmaps
	chBitmapDelta  uint32 = 11 // call: bitmap changes since a cached version (delta gather)
	chShardLock    uint32 = 12 // call to shard manager: one shard of the sharded arbiter
	chShardUnlock  uint32 = 13 // one-way to shard manager
	chConvoy       uint32 = 14 // one-way: zero-copy thread convoy (Config.Convoy)
)

// Node is one PM2 node: a heavy container process with its own simulated
// address space, slot layer, heap, thread scheduler and Madeleine endpoint.
type Node struct {
	c     *Cluster
	id    int
	actor *simtime.Actor
	space *vmem.Space
	ep    *madeleine.Endpoint
	slots *core.NodeSlots
	sched *marcel.Scheduler
	heap  *heap.Heap

	// pumpPosted tracks whether a scheduler-run event is queued.
	pumpPosted bool

	// dead marks a crashed node (fault plan, see fault.go): the
	// scheduler pump is gated off, so events already queued for the node
	// still fire but dispatch no further thread execution. Set by the
	// crash event InstallFaults schedules.
	dead bool

	// Registered-pointer tables for the relocation baseline (§2):
	// tid → key → address of the registered pointer variable.
	regPtrs map[uint32]map[uint32]Addr
	nextKey uint32

	// locks is the lock table of the keys this rank manages: a held key
	// maps to its holder and waiters (arbiter.go). grantedBy maps each
	// key this node holds to the manager rank that granted it.
	locks     map[int]*lockEntry
	grantedBy map[int]int

	// neg is the negotiation running its protocol on this node (past the
	// global lock, or this node's turn under the sharded arbiter), and
	// negWaiting the sharded arbiter's FIFO of negotiations queued
	// behind it (see negotiate.go).
	neg        *negotiation
	negWaiting []*negotiation

	// Delta-gather state (GatherDelta, and GatherTree's post-failover
	// fallback; see delta.go).
	// journal is the server half: the version stamp and bounded
	// dirty-word journal of this node's own bitmap. deltaPeers and
	// deltaOr are the initiator half: the cached view of each peer, a
	// shared snapshot of its map at the last-seen version (nil before
	// first contact), and the cached global OR of those views, both
	// allocated lazily on the node's first negotiation.
	journal    *bitmap.Journal
	deltaPeers []*viewSnap
	deltaOr    *bitmap.Bitmap
	// Delta-gather scratch, reused every round so a warm round
	// allocates only what crosses the wire (see deltaView and
	// onBitmapDeltaCall): the plan's global map, the per-node map
	// slice handed to the planner, and the served journal words.
	deltaPlan  *bitmap.Bitmap
	deltaMaps  []*bitmap.Bitmap
	deltaWords []int
	// deltaCalls are the initiator's per-peer call records (delta.go).
	deltaCalls []deltaPeerCall
	// calls counts call records neither answered nor out of attempts.
	calls int

	// buyHook, when non-nil, runs before onBuyCall processes a request;
	// returning true declines the batch outright. Test-only seam for
	// deterministically interleaving racing allocations with the
	// negotiation retry path.
	buyHook func(src int, giveBack bool) (decline bool)

	// deltaReplyHook, when non-nil, runs after applyDeltaReply folded
	// one peer's reply into the cached views. Test-only seam for checking
	// the cached global OR against the views after every reply kind.
	deltaReplyHook func(peer int, status uint32)

	// Migration-install scratch state, reused across messages so the
	// receive path stops allocating per record (see image.go): the
	// decoded record and the first-touch page set.
	img          threadImage
	touchScratch map[Addr]bool

	// parked holds threads a checkpoint capture froze and detached, in
	// capture order — the order Resume (and a restore) re-enqueues
	// them, which is what keeps the two continuations byte-identical
	// (see checkpoint.go).
	parked []*marcel.Thread

	// pumpFn is n.pump, bound once so that kick posts a quantum without
	// allocating a closure.
	pumpFn func()
}

func newNode(c *Cluster, id int) *Node {
	n := &Node{
		c:       c,
		id:      id,
		actor:   simtime.NewActor(c.eng, fmt.Sprintf("node%d", id)),
		space:   vmem.NewSpaceOn(c.pages),
		regPtrs: make(map[uint32]map[uint32]Addr),
	}
	n.pumpFn = n.pump
	n.ep = madeleine.Attach(c.nw, id, n.actor)
	n.ep.SetPool(c.bufPool)
	n.slots = core.NewNodeSlots(n.space, n.actor, core.NodeConfig{
		NodeID:   id,
		NumNodes: c.cfg.Nodes,
		Dist:     c.cfg.Dist,
		CacheCap: c.cfg.CacheCap,
		Model:    c.cfg.Model,
	})
	n.sched = marcel.NewScheduler(n.space, c.im, n.slots, n.actor, marcel.Config{
		NodeID:  id,
		Quantum: c.cfg.Quantum,
		Model:   c.cfg.Model,
	})
	n.sched.SetEnv(n)
	n.sched.SetHooks(marcel.Hooks{
		Exit: func(t *marcel.Thread) {
			delete(n.regPtrs, t.TID)
			c.noteCohortExit(t.TID, n.actor.Now())
		},
		Fault:   n.onFault,
		Migrate: n.migrateOut,
	})
	n.heap = heap.New(n.space, n.actor, c.cfg.Model)
	// Any ownership change under the delta gather (or the tree gather,
	// whose post-failover fallback is a delta round) bumps the bitmap
	// version and journals the dirtied words, so purchases, give-backs
	// and defrag installs all invalidate cached remote views. The
	// paper-faithful sequential gather never reads versions, so it skips
	// the bookkeeping entirely.
	if c.cfg.Gather != GatherSequential {
		n.journal = bitmap.NewJournal(deltaJournalWords)
		n.slots.SetOnChange(n.journal.NoteBits)
	}

	// Map the replicated static data segment at the same address on
	// every node (paper rule 1).
	if data := c.im.DataImage(); len(data) > 0 {
		sz := int(layout.PageCeil(uint32(len(data))))
		if err := n.space.Mmap(layout.DataBase, sz); err != nil {
			panic(err)
		}
		if err := n.space.Write(layout.DataBase, data); err != nil {
			panic(err)
		}
	}

	n.ep.Handle(chMigrate, n.onMigrateMsg)
	n.ep.Handle(chConvoy, n.onConvoyMsg)
	n.ep.Handle(chRelocMigrate, n.onRelocMigrateMsg)
	n.ep.HandleCall(chSpawn, n.onSpawnCall)
	n.ep.HandleCall(chLock, n.onLockCall)
	n.ep.Handle(chUnlock, n.onUnlockMsg)
	n.ep.HandleCall(chBitmap, n.onBitmapCall)
	n.ep.HandleCall(chBuy, n.onBuyCall)
	n.ep.HandleCall(chGatherTree, n.onGatherTreeCall)
	n.ep.HandleCall(chBitmapDelta, n.onBitmapDeltaCall)
	n.ep.HandleCall(chShardLock, n.onShardLockCall)
	n.ep.Handle(chShardUnlock, n.onShardUnlockMsg)
	n.ep.HandleCall(chSurrender, n.onSurrenderCall)
	n.ep.HandleCall(chInstall, n.onInstallCall)
	return n
}

// ID returns the node's rank (pm2_self()).
func (n *Node) ID() int { return n.id }

// Space returns the node's simulated address space.
func (n *Node) Space() *vmem.Space { return n.space }

// Slots returns the node's slot layer.
func (n *Node) Slots() *core.NodeSlots { return n.slots }

// Scheduler returns the node's thread scheduler.
func (n *Node) Scheduler() *marcel.Scheduler { return n.sched }

// Heap returns the node's baseline malloc heap.
func (n *Node) Heap() *heap.Heap { return n.heap }

// Actor returns the node's CPU actor.
func (n *Node) Actor() *simtime.Actor { return n.actor }

// Kick ensures the scheduler keeps running while threads are ready; callers
// that create or wake threads from outside the builtin path (benchmarks,
// load balancers) call it after mutating the run queue.
func (n *Node) Kick() { n.kick() }

// Negotiate runs the §4.4 slot negotiation for k contiguous slots under
// the configured gather strategy and arbiter, calling done with the
// outcome. Exposed for benchmarks that drive the protocol directly; it
// must be called from within the node's actor (Cluster.At).
func (n *Node) Negotiate(k int, done func(bool)) { n.negotiate(k, done) }

// kick ensures a scheduler-run event is queued while threads are ready.
// One event runs one quantum, so message handling interleaves with thread
// execution at quantum granularity.
func (n *Node) kick() {
	if n.dead || n.pumpPosted || !n.sched.Ready() {
		return
	}
	n.pumpPosted = true
	n.actor.Post(n.actor.Now(), n.pumpFn)
}

// pump is the scheduler-run event kick posts: one quantum, then another
// kick while threads stay ready.
func (n *Node) pump() {
	n.pumpPosted = false
	if n.dead {
		return // crashed while the pump event was in flight
	}
	if n.sched.RunOne() {
		n.kick()
	}
}

// onFault reports a dying thread the way the paper's traces do.
func (n *Node) onFault(t *marcel.Thread, err error) {
	n.c.log.Flush(n.id)
	if vmem.IsSegfault(err) {
		n.c.log.Raw("Segmentation fault")
	} else {
		n.c.log.Raw(fmt.Sprintf("thread %#x killed: %v", t.TID, err))
	}
	delete(n.regPtrs, t.TID)
}

// checkThreads runs the arena invariant checker over every resident
// thread, plus the scheduler's load-accounting self-check.
func (n *Node) checkThreads() error {
	if err := n.sched.CheckCounters(); err != nil {
		return fmt.Errorf("node %d: %w", n.id, err)
	}
	for _, t := range n.sched.Snapshot() {
		if err := core.CheckArena(n.space, t.HeadAddr()); err != nil {
			return fmt.Errorf("node %d thread %#x: %w", n.id, t.TID, err)
		}
	}
	return nil
}

// Builtin dispatches one runtime call (vm.Env). It runs inside the node's
// actor, during a scheduler quantum.
func (n *Node) Builtin(id uint32, args [4]uint32) vm.BuiltinResult {
	model := n.c.cfg.Model
	n.actor.Charge(model.Builtin())
	t := n.sched.Current()

	switch id {
	case isa.BIsomalloc:
		return n.doIsomalloc(t, args[0])

	case isa.BIsofree:
		if err := n.sched.Arena(t).Isofree(args[0], n.slots); err != nil {
			return vm.BuiltinResult{Ctl: vm.CtlFault, Err: err}
		}
		return vm.BuiltinResult{Ctl: vm.CtlReturn}

	case isa.BMalloc:
		start := n.actor.Now()
		addr, err := n.heap.Malloc(args[0])
		if n.c.cfg.RecordAllocs {
			sample := AllocSample{
				Node: n.id, Size: args[0], Iso: false,
				Latency: n.actor.Now() - start, OK: err == nil,
			}
			n.c.allocSamples = append(n.c.allocSamples, sample)
		}
		if err != nil {
			return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: 0}
		}
		return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: addr}

	case isa.BFree:
		if err := n.heap.Free(args[0]); err != nil {
			return vm.BuiltinResult{Ctl: vm.CtlFault, Err: err}
		}
		return vm.BuiltinResult{Ctl: vm.CtlReturn}

	case isa.BMigrate:
		dest := int(args[0])
		if dest < 0 || dest >= n.c.Nodes() {
			return vm.BuiltinResult{Ctl: vm.CtlFault, Err: fmt.Errorf("pm2_migrate to invalid node %d", dest)}
		}
		if dest == n.id {
			return vm.BuiltinResult{Ctl: vm.CtlReturn}
		}
		return vm.BuiltinResult{Ctl: vm.CtlMigrate, Dest: dest}

	case isa.BSelfNode:
		return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: uint32(n.id)}

	case isa.BSelfThread:
		return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: t.Desc}

	case isa.BPrintf:
		return n.doPrintf(args)

	case isa.BYield:
		return vm.BuiltinResult{Ctl: vm.CtlYield}

	case isa.BExit:
		return vm.BuiltinResult{Ctl: vm.CtlExit}

	case isa.BSpawn:
		th, err := n.sched.Create(args[0], args[1])
		if err == nil {
			n.kick()
			return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: th.TID}
		}
		// The node ran out of slots: "the same algorithm may be used if
		// a node has run out of slots" (§4.4). Negotiate for one and
		// retry while the caller blocks.
		waiter := t
		n.sched.Block(waiter)
		n.createNegotiated(args[0], args[1], func(tid uint32) {
			n.sched.Wake(waiter, tid)
			n.kick()
		})
		return vm.BuiltinResult{Ctl: vm.CtlBlock}

	case isa.BSpawnRemote:
		dest := int(args[0])
		if dest < 0 || dest >= n.c.Nodes() {
			return vm.BuiltinResult{Ctl: vm.CtlFault, Err: fmt.Errorf("spawn_remote to invalid node %d", dest)}
		}
		if dest == n.id {
			th, err := n.sched.Create(args[1], args[2])
			if err != nil {
				return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: 0}
			}
			n.kick()
			return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: th.TID}
		}
		waiter := t
		n.sched.Block(waiter)
		n.spawnRemote(dest, args[1], args[2], func(tid uint32) {
			n.sched.Wake(waiter, tid)
			n.kick()
		})
		return vm.BuiltinResult{Ctl: vm.CtlBlock}

	case isa.BJoin:
		if n.sched.Join(t, args[0]) {
			return vm.BuiltinResult{Ctl: vm.CtlReturn}
		}
		return vm.BuiltinResult{Ctl: vm.CtlBlock}

	case isa.BNodeCount:
		return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: uint32(n.c.Nodes())}

	case isa.BClock:
		return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: uint32(n.actor.Now() / simtime.Microsecond)}

	case isa.BSleep:
		sleeper := t
		n.sched.Block(sleeper)
		n.actor.PostAfter(simtime.Time(args[0])*simtime.Microsecond, func() {
			n.sched.Wake(sleeper, 0)
			n.kick()
		})
		return vm.BuiltinResult{Ctl: vm.CtlBlock}

	case isa.BRegisterPtr:
		m := n.regPtrs[t.TID]
		if m == nil {
			m = make(map[uint32]Addr)
			n.regPtrs[t.TID] = m
		}
		n.nextKey++
		m[n.nextKey] = args[0]
		return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: n.nextKey}

	case isa.BUnregisterPtr:
		if m := n.regPtrs[t.TID]; m != nil {
			delete(m, args[0])
		}
		return vm.BuiltinResult{Ctl: vm.CtlReturn}
	}
	return vm.BuiltinResult{Ctl: vm.CtlFault, Err: fmt.Errorf("unknown builtin %d", id)}
}

// doIsomalloc serves pm2_isomalloc, falling back to the negotiation
// protocol when the local node lacks the contiguous slots (paper §4.4).
func (n *Node) doIsomalloc(t *marcel.Thread, size uint32) vm.BuiltinResult {
	start := n.actor.Now()
	record := func(latency simtime.Time, ok bool) {
		if n.c.cfg.RecordAllocs {
			sample := AllocSample{
				Node: n.id, Size: size, Iso: true, Latency: latency, OK: ok,
			}
			n.c.allocSamples = append(n.c.allocSamples, sample)
		}
	}
	ar := n.sched.Arena(t)
	addr, err := ar.Isomalloc(size, n.slots)
	if err == nil {
		record(n.actor.Now()-start, true)
		return vm.BuiltinResult{Ctl: vm.CtlReturn, Ret: addr}
	}
	if err != core.ErrNoSlots {
		return vm.BuiltinResult{Ctl: vm.CtlFault, Err: err}
	}
	// Block the thread and negotiate for the required run.
	waiter := t
	n.sched.Block(waiter)
	n.negotiate(core.SlotsFor(size), func(ok bool) {
		var ret uint32
		if ok {
			if a, err := ar.Isomalloc(size, n.slots); err == nil {
				ret = a
			}
		}
		record(n.actor.Now()-start, ret != 0)
		n.sched.Wake(waiter, ret)
		n.kick()
	})
	return vm.BuiltinResult{Ctl: vm.CtlBlock}
}

// doPrintf formats and emits pm2_printf output.
func (n *Node) doPrintf(args [4]uint32) vm.BuiltinResult {
	format, err := n.space.ReadCString(args[0], 4096)
	if err != nil {
		return vm.BuiltinResult{Ctl: vm.CtlFault, Err: err}
	}
	text, err := n.formatVM(format, [3]uint32{args[1], args[2], args[3]})
	if err != nil {
		return vm.BuiltinResult{Ctl: vm.CtlFault, Err: err}
	}
	n.actor.Charge(n.c.cfg.Model.Probes(len(text)))
	n.c.log.Printf(n.id, text)
	return vm.BuiltinResult{Ctl: vm.CtlReturn}
}

// formatVM implements the pm2_printf conversions: %d (signed), %u, %x,
// %p (bare 8-digit hex, as in the paper's thread ids), %s, %%.
func (n *Node) formatVM(format string, args [3]uint32) (string, error) {
	var out strings.Builder
	ai := 0
	next := func() uint32 {
		if ai < len(args) {
			v := args[ai]
			ai++
			return v
		}
		return 0
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			out.WriteByte(c)
			continue
		}
		i++
		if i >= len(format) {
			out.WriteByte('%')
			break
		}
		switch format[i] {
		case 'd':
			fmt.Fprintf(&out, "%d", int32(next()))
		case 'u':
			fmt.Fprintf(&out, "%d", next())
		case 'x':
			fmt.Fprintf(&out, "%x", next())
		case 'p':
			fmt.Fprintf(&out, "%08x", next())
		case 's':
			s, err := n.space.ReadCString(next(), 4096)
			if err != nil {
				return "", err
			}
			out.WriteString(s)
		case '%':
			out.WriteByte('%')
		default:
			out.WriteByte('%')
			out.WriteByte(format[i])
		}
	}
	return out.String(), nil
}

// onSpawnCall services remote thread creation (LRPC). If this node has run
// out of slots the reply is deferred through a one-slot negotiation (§4.4:
// the algorithm "simply enables a node to buy slots from some other
// nodes").
func (n *Node) onSpawnCall(src int, req *madeleine.Call) {
	entry := req.Msg.U32()
	arg := req.Msg.U32()
	th, err := n.sched.Create(entry, arg)
	if err == nil {
		n.kick()
		tid := th.TID
		req.Reply(func(b *madeleine.Buffer) { b.PackU32(tid) })
		return
	}
	r := req
	n.createNegotiated(entry, arg, func(tid uint32) {
		n.kick()
		r.Reply(func(b *madeleine.Buffer) { b.PackU32(tid) })
	})
}

// createNegotiated creates a thread after buying a slot through the
// negotiation protocol; done receives the tid (0 on failure).
func (n *Node) createNegotiated(entry, arg uint32, done func(tid uint32)) {
	n.negotiate(1, func(ok bool) {
		if !ok {
			done(0)
			return
		}
		th, err := n.sched.Create(entry, arg)
		if err != nil {
			done(0)
			return
		}
		done(th.TID)
	})
}
