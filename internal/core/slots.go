// Package core implements the paper's primary contribution: the isomalloc
// iso-address memory allocator (paper §3–§4).
//
// The iso-address area is divided into fixed-size slots, globally reserved
// and locally allocated: each slot belongs to exactly one agent (a node or a
// thread) system-wide, so memory mmapped in a slot on one node is guaranteed
// to be unmapped at the same addresses on every other node. Nodes track
// their free slots in a private bitmap; threads chain their slots in a
// doubly-linked list whose links live inside the slots themselves, in
// simulated memory, so the chain survives iso-address migration verbatim.
// A block layer provides malloc-compatible allocation inside the slots.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bitmap"
	"repro/internal/cost"
	"repro/internal/layout"
	"repro/internal/simtime"
	"repro/internal/vmem"
)

// Addr is a simulated virtual address.
type Addr = layout.Addr

// Charger absorbs virtual CPU time charges; *simtime.Actor implements it.
type Charger interface {
	Charge(simtime.Time)
}

// NopCharger discards charges; used by unit tests that don't model time.
type NopCharger struct{}

// Charge implements Charger.
func (NopCharger) Charge(simtime.Time) {}

// Distribution decides the initial assignment of slots to nodes (paper
// §4.1: "slots are distributed among the nodes according to some
// user-defined distribution pattern").
type Distribution interface {
	// Mark sets in bm the bit of every slot node owns initially, in a
	// p-node cluster. It touches only those slots, so building one
	// node's bitmap costs O(owned slots), not O(SlotCount).
	Mark(bm *bitmap.Bitmap, node, p int)
	// Name identifies the distribution in stats, benchmarks and
	// checkpoints; ParseDistribution is its exact inverse.
	Name() string
}

// ParseDistribution returns the distribution a Name() string names:
// "round-robin", "partition" or "block-cyclic:K" with K a positive
// decimal written without sign or leading zeros.
func ParseDistribution(s string) (Distribution, error) {
	switch s {
	case "round-robin":
		return RoundRobin{}, nil
	case "partition":
		return Partition{}, nil
	}
	if ks, ok := strings.CutPrefix(s, "block-cyclic:"); ok {
		if k, err := strconv.Atoi(ks); err == nil && k > 0 && strconv.Itoa(k) == ks {
			return BlockCyclic{K: k}, nil
		}
	}
	return nil, fmt.Errorf("core: unknown distribution %q (want round-robin, block-cyclic:K with K ≥ 1, or partition)", s)
}

// RoundRobin is the paper's default: slot i belongs to node i mod p. Simple,
// but "it behaves rather poorly for multi-slot allocations" — with p >= 2 no
// node ever owns two contiguous slots, so every multi-slot request
// negotiates.
type RoundRobin struct{}

// Mark implements Distribution.
func (RoundRobin) Mark(bm *bitmap.Bitmap, node, p int) { bm.SetEvery(node, p) }

// Name implements Distribution.
func (RoundRobin) Name() string { return "round-robin" }

// BlockCyclic distributes runs of K contiguous slots cyclically: slot i
// belongs to node (i/K) mod p. Multi-slot allocations up to K slots stay
// local.
type BlockCyclic struct{ K int }

// Mark implements Distribution.
func (d BlockCyclic) Mark(bm *bitmap.Bitmap, node, p int) {
	// A block wider than the area is the whole area, owned by node 0;
	// clamping K keeps the stride arithmetic from overflowing.
	k := min(d.K, layout.SlotCount)
	for i := node * k; i < layout.SlotCount; i += p * k {
		bm.SetRun(i, min(k, layout.SlotCount-i))
	}
}

// Name implements Distribution.
func (d BlockCyclic) Name() string { return "block-cyclic:" + strconv.Itoa(d.K) }

// Partition splits the iso-address area into p contiguous sub-areas, one per
// node ("an extreme choice ... not advisable if the heap of the container
// process needs to grow in unpredictable ways"). The last node also takes
// the SlotCount mod p remainder.
type Partition struct{}

// Mark implements Distribution.
func (Partition) Mark(bm *bitmap.Bitmap, node, p int) {
	per := layout.SlotCount / p
	lo := node * per
	hi := lo + per
	if node == p-1 {
		hi = layout.SlotCount
	}
	bm.SetRun(lo, hi-lo)
}

// Name implements Distribution.
func (Partition) Name() string { return "partition" }

// ErrNoSlots reports that the local node owns no suitable (run of) slots;
// the caller must negotiate with other nodes (paper §4.4) or fail.
var ErrNoSlots = errors.New("isomalloc: no suitable local slots (negotiation required)")

// SlotStats counts slot-layer activity on one node.
type SlotStats struct {
	Acquired      uint64 // slots handed to threads
	Released      uint64 // slots returned by threads
	CacheHits     uint64 // acquisitions served without an mmap call
	Mmaps         uint64 // actual mmap calls
	Munmaps       uint64 // actual munmap calls
	Installed     uint64 // slots mapped on migration arrival
	Evicted       uint64 // slots unmapped on migration departure
	RunSearches   uint64 // contiguous-run searches
	RunSearchFail uint64 // searches that required negotiation
}

// NodeConfig configures a node's slot manager.
type NodeConfig struct {
	NodeID   int
	NumNodes int
	Dist     Distribution
	// CacheCap is the maximum number of free slots kept mmapped (the
	// paper's §6 optimization). 0 disables the cache. A cached slot
	// keeps its mapping but no host memory (see Release).
	CacheCap int
	Model    *cost.Model
}

// NodeSlots is the slot layer of one node: the private bitmap of owned free
// slots (bit = 1: owned by this node and free), the mmapped-slot cache, and
// the acquire/release operations threads use. All memory operations charge
// virtual time to the node's Charger.
type NodeSlots struct {
	cfg   NodeConfig
	space *vmem.Space
	ch    Charger
	bm    *bitmap.Bitmap
	// cached tracks owned free slots that are still mmapped; cacheOrder
	// is FIFO for eviction.
	cached     map[int]bool
	cacheOrder []int
	stats      SlotStats
	// onChange, when set, runs after every mutation of the ownership
	// bitmap with the bit range [start, start+n) that changed. The
	// runtime uses it to feed the bitmap-version journal that the delta
	// gather reads.
	onChange func(start, n int)
}

// NewNodeSlots builds the slot layer for one node, populating the bitmap
// from the distribution.
func NewNodeSlots(space *vmem.Space, ch Charger, cfg NodeConfig) *NodeSlots {
	if cfg.NumNodes <= 0 || cfg.NodeID < 0 || cfg.NodeID >= cfg.NumNodes {
		panic(fmt.Sprintf("core: bad node config %d/%d", cfg.NodeID, cfg.NumNodes))
	}
	if cfg.Dist == nil {
		cfg.Dist = RoundRobin{}
	}
	if cfg.Model == nil {
		cfg.Model = cost.Default()
	}
	ns := &NodeSlots{
		cfg:    cfg,
		space:  space,
		ch:     ch,
		bm:     bitmap.New(layout.SlotCount),
		cached: make(map[int]bool),
	}
	cfg.Dist.Mark(ns.bm, cfg.NodeID, cfg.NumNodes)
	return ns
}

// Stats returns a copy of the counters.
func (ns *NodeSlots) Stats() SlotStats { return ns.stats }

// SetOnChange registers fn to run after every ownership-bitmap mutation,
// with the slot range [start, start+n) whose bits changed.
func (ns *NodeSlots) SetOnChange(fn func(start, n int)) { ns.onChange = fn }

func (ns *NodeSlots) changed(start, n int) {
	if ns.onChange != nil {
		ns.onChange(start, n)
	}
}

// Bitmap exposes the node's private slot bitmap (used by the negotiation
// protocol, which gathers and rewrites bitmaps).
func (ns *NodeSlots) Bitmap() *bitmap.Bitmap { return ns.bm }

// OwnedFree returns the number of slots currently owned (and free).
func (ns *NodeSlots) OwnedFree() int { return ns.bm.Count() }

// Space returns the node's address space.
func (ns *NodeSlots) Space() *vmem.Space { return ns.space }

// Model returns the node's cost model.
func (ns *NodeSlots) Model() *cost.Model { return ns.cfg.Model }

// Charger returns the node's charger.
func (ns *NodeSlots) Charger() Charger { return ns.ch }

// mmapSlots maps n slots starting at slot index start and charges for it.
func (ns *NodeSlots) mmapSlots(start, n int) error {
	ns.stats.Mmaps++
	ns.ch.Charge(ns.cfg.Model.Mmap(n * layout.PagesPerSlot))
	return ns.space.Mmap(layout.SlotBase(start), n*layout.SlotSize)
}

func (ns *NodeSlots) munmapSlots(start, n int) error {
	ns.stats.Munmaps++
	ns.ch.Charge(ns.cfg.Model.Munmap(n * layout.PagesPerSlot))
	return ns.space.Munmap(layout.SlotBase(start), n*layout.SlotSize)
}

func (ns *NodeSlots) uncache(idx int) {
	if ns.cached[idx] {
		delete(ns.cached, idx)
		for i, v := range ns.cacheOrder {
			if v == idx {
				ns.cacheOrder = append(ns.cacheOrder[:i], ns.cacheOrder[i+1:]...)
				break
			}
		}
	}
}

// AcquireOne hands one owned free slot to a thread: the bit is cleared and
// the slot's memory is mapped (reusing a cached mapping when possible). It
// returns the slot index, or ErrNoSlots if the node owns nothing.
func (ns *NodeSlots) AcquireOne() (int, error) {
	// Prefer a cached (already mmapped) slot: this is the paper's §6
	// optimization that saves the mmap at thread creation.
	if len(ns.cacheOrder) > 0 {
		idx := ns.cacheOrder[len(ns.cacheOrder)-1]
		ns.cacheOrder = ns.cacheOrder[:len(ns.cacheOrder)-1]
		delete(ns.cached, idx)
		ns.bm.Clear(idx)
		ns.changed(idx, 1)
		ns.stats.Acquired++
		ns.stats.CacheHits++
		ns.ch.Charge(ns.cfg.Model.Probes(1))
		// Release discarded the slot's pages, so it is handed out
		// demand-zero, like a fresh mmap: the block layer rewrites all
		// metadata and malloc semantics promise nothing about block
		// bodies.
		return idx, nil
	}
	ns.ch.Charge(ns.cfg.Model.Probes(1))
	idx := ns.bm.FirstSet(0)
	if idx < 0 {
		return 0, ErrNoSlots
	}
	ns.bm.Clear(idx)
	ns.changed(idx, 1)
	ns.stats.Acquired++
	if err := ns.mmapSlots(idx, 1); err != nil {
		return 0, err
	}
	return idx, nil
}

// AcquireRun hands a run of n contiguous owned free slots to a thread
// (first-fit over the bitmap, paper §4.4 step 1). It returns ErrNoSlots if
// no such run exists locally, in which case the caller negotiates.
func (ns *NodeSlots) AcquireRun(n int) (int, error) {
	if n == 1 {
		return ns.AcquireOne()
	}
	ns.stats.RunSearches++
	ns.ch.Charge(ns.cfg.Model.BitmapScan(layout.BitmapBytes))
	start := ns.bm.FindRun(n)
	if start < 0 {
		ns.stats.RunSearchFail++
		return 0, ErrNoSlots
	}
	ns.takeRun(start, n)
	return start, nil
}

// takeRun clears bits and maps the slots of a run known to be owned+free.
func (ns *NodeSlots) takeRun(start, n int) {
	ns.bm.ClearRun(start, n)
	ns.changed(start, n)
	ns.stats.Acquired += uint64(n)
	// Map the uncached stretches; consume cached mappings in place.
	i := start
	for i < start+n {
		if ns.cached[i] {
			ns.uncache(i)
			ns.stats.CacheHits++
			i++
			continue
		}
		j := i
		for j < start+n && !ns.cached[j] {
			j++
		}
		if err := ns.mmapSlots(i, j-i); err != nil {
			panic(fmt.Sprintf("core: slot run [%d,%d) already mapped: %v", i, j, err))
		}
		i = j
	}
}

// AcquireAt takes possession of specific owned free slots (used after a
// negotiation marks purchased slots in our bitmap).
func (ns *NodeSlots) AcquireAt(start, n int) error {
	if !ns.bm.TestRun(start, n) {
		return fmt.Errorf("core: AcquireAt [%d,%d): slots not owned+free", start, start+n)
	}
	ns.takeRun(start, n)
	return nil
}

// Release returns a run of slots to this node (thread released or died
// here; paper: released slots go to the node the thread is visiting). The
// memory is unmapped unless the single-slot cache has room. A cached
// slot stays mapped — its reuse saves the mmap charge — but its host
// pages are discarded: free slots hold no host memory. The discard is
// host bookkeeping and charges nothing.
func (ns *NodeSlots) Release(start, n int) error {
	if ns.bm.TestRun(start, 1) {
		return fmt.Errorf("core: Release [%d,%d): slot already free", start, start+n)
	}
	ns.bm.SetRun(start, n)
	ns.changed(start, n)
	ns.stats.Released += uint64(n)
	if n == 1 && len(ns.cacheOrder) < ns.cfg.CacheCap {
		ns.cached[start] = true
		ns.cacheOrder = append(ns.cacheOrder, start)
		return ns.space.Discard(layout.SlotBase(start), layout.SlotSize)
	}
	return ns.munmapSlots(start, n)
}

// Evict unmaps a thread-owned slot run on migration departure. The bitmap
// is untouched: the slots still belong to the migrating thread (paper §4.2:
// "the bitmaps do not undergo any change on thread migration").
func (ns *NodeSlots) Evict(start, n int) error {
	ns.ChargeEvict(n)
	return ns.UnmapEvicted(start, n)
}

// ChargeEvict charges and counts the munmap of an n-slot Evict without
// unmapping anything. A sender whose message borrows the run's pages
// (vmem.Space.ReadAliases) but whose cost model unmaps before the send
// charges with it first, sends, and then calls UnmapEvicted: the send
// gathers live pages, and virtual time sees the munmap first.
func (ns *NodeSlots) ChargeEvict(n int) {
	ns.stats.Evicted += uint64(n)
	ns.stats.Munmaps++
	ns.ch.Charge(ns.cfg.Model.Munmap(n * layout.PagesPerSlot))
}

// UnmapEvicted unmaps the slot run whose munmap ChargeEvict charged.
func (ns *NodeSlots) UnmapEvicted(start, n int) error {
	return ns.space.Munmap(layout.SlotBase(start), n*layout.SlotSize)
}

// Install maps a thread-owned slot run on migration arrival. The iso-address
// discipline guarantees the range is free here; a mapping collision is a
// protocol-invariant violation and panics.
func (ns *NodeSlots) Install(start, n int) error {
	ns.stats.Installed += uint64(n)
	return ns.mmapSlots(start, n)
}

// SellRun marks [start,start+n) as no longer owned: the slots were bought
// by another node during negotiation.
func (ns *NodeSlots) SellRun(start, n int) error {
	if !ns.bm.TestRun(start, n) {
		return fmt.Errorf("core: SellRun [%d,%d): not owned+free", start, start+n)
	}
	for i := start; i < start+n; i++ {
		if ns.cached[i] {
			ns.uncache(i)
			if err := ns.munmapSlots(i, 1); err != nil {
				return err
			}
		}
	}
	ns.bm.ClearRun(start, n)
	ns.changed(start, n)
	return nil
}

// SellIntersection sells every owned free slot inside [start,start+n) —
// the range-purchase used after a tree gather, where the buyer knows the
// chosen run but not who owns each slot. It returns the maximal sub-runs
// actually sold (possibly none), each cleared from the bitmap exactly as
// SellRun would.
func (ns *NodeSlots) SellIntersection(start, n int) ([][2]int, error) {
	var sold [][2]int
	i := start
	for i < start+n {
		if !ns.bm.Test(i) {
			i++
			continue
		}
		j := i
		for j < start+n && ns.bm.Test(j) {
			j++
		}
		if err := ns.SellRun(i, j-i); err != nil {
			return sold, err
		}
		sold = append(sold, [2]int{i, j - i})
		i = j
	}
	return sold, nil
}

// CanBuyRun reports whether BuyRun of [start,start+n) would succeed: no
// slot in the run is already owned by this node.
func (ns *NodeSlots) CanBuyRun(start, n int) bool {
	return !ns.bm.AnyInRun(start, n)
}

// BuyRun marks [start,start+n) as owned+free after purchasing the slots
// from other nodes.
func (ns *NodeSlots) BuyRun(start, n int) error {
	if ns.bm.AnyInRun(start, n) {
		return fmt.Errorf("core: BuyRun [%d,%d): overlap with owned slots", start, start+n)
	}
	ns.bm.SetRun(start, n)
	ns.changed(start, n)
	return nil
}

// SurrenderAll hands every owned free slot to a defragmentation
// coordinator: the cache is evicted (the slots may be granted to another
// node), the bitmap is cleared, and the surrendered set is returned. Until
// a replacement bitmap arrives the node owns nothing and local allocations
// fail over to the negotiation path.
func (ns *NodeSlots) SurrenderAll() *bitmap.Bitmap {
	ns.DropCache()
	out := ns.bm
	ns.bm = bitmap.New(layout.SlotCount)
	ns.changed(0, layout.SlotCount)
	return out
}

// ReplaceBitmap installs a new ownership bitmap, as the global
// defragmentation of §4.4 does ("completely restructure the slot
// distribution at the system level ... the only requirement is that each
// slot present in the bitmaps must finally belong to exactly one node").
// Cached mappings of slots we no longer own are evicted first.
func (ns *NodeSlots) ReplaceBitmap(bm *bitmap.Bitmap) error {
	if bm.Len() != layout.SlotCount {
		return fmt.Errorf("core: replacement bitmap has %d bits", bm.Len())
	}
	for _, idx := range append([]int(nil), ns.cacheOrder...) {
		if !bm.Test(idx) {
			ns.uncache(idx)
			if err := ns.munmapSlots(idx, 1); err != nil {
				return err
			}
		}
	}
	ns.bm = bm.Clone()
	ns.changed(0, layout.SlotCount)
	return nil
}

// RestoreBitmap reinstates an ownership bitmap from a checkpoint image.
// Unlike ReplaceBitmap it is a pure state write — no charges, no
// on-change hook, no cache interaction — because the restore path
// rebuilds caches and journals itself from the captured ground
// truth.
func (ns *NodeSlots) RestoreBitmap(bm *bitmap.Bitmap) error {
	if bm.Len() != layout.SlotCount {
		return fmt.Errorf("core: restored bitmap has %d bits, want %d", bm.Len(), layout.SlotCount)
	}
	ns.bm = bm.Clone()
	return nil
}

// DropCache unmaps all cached free slots (used by ablation benchmarks to
// simulate a cold slot cache, and by checkpoint capture).
func (ns *NodeSlots) DropCache() {
	for _, idx := range ns.cacheOrder {
		delete(ns.cached, idx)
		if err := ns.munmapSlots(idx, 1); err != nil {
			panic(err)
		}
	}
	ns.cacheOrder = ns.cacheOrder[:0]
}

// CachedSlots returns the number of mmapped free slots currently cached.
func (ns *NodeSlots) CachedSlots() int { return len(ns.cacheOrder) }
