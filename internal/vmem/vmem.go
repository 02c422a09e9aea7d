// Package vmem implements the simulated per-node 32-bit virtual address
// space on which the whole reproduction runs.
//
// Portable Go gives no control over the placement of goroutine stacks or heap
// objects, so the paper's central mechanism — re-installing a thread's memory
// at the very same virtual addresses on another node — cannot be expressed on
// the Go runtime directly. Instead every node owns a Space: a sparse map
// from simulated addresses to byte pages, kept per 64 KB slot, with
// page-granular mmap-like mapping at caller-chosen addresses and hard
// faults on unmapped access.
// "Segmentation fault" is a first-class, catchable outcome, exactly as in the
// paper's Figures 2, 4 and 9.
package vmem

import (
	"fmt"
	"math/bits"

	"repro/internal/layout"
)

// Addr is a simulated 32-bit virtual address.
type Addr = layout.Addr

// FaultOp describes the access that triggered a fault.
type FaultOp uint8

// Fault operations.
const (
	OpRead FaultOp = iota
	OpWrite
	OpMap
	OpUnmap
	OpDiscard
)

func (op FaultOp) String() string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpMap:
		return "mmap"
	case OpUnmap:
		return "munmap"
	case OpDiscard:
		return "discard"
	}
	return "?"
}

// Fault is the error returned for invalid memory operations. A Fault from
// OpRead or OpWrite corresponds to a SIGSEGV delivered to the faulting
// thread.
type Fault struct {
	Addr Addr
	Op   FaultOp
	Why  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("segmentation fault: %s at %#08x (%s)", f.Op, f.Addr, f.Why)
}

// IsSegfault reports whether err is a read/write access fault (as opposed to
// a mapping-management error).
func IsSegfault(err error) bool {
	f, ok := err.(*Fault)
	return ok && (f.Op == OpRead || f.Op == OpWrite)
}

type page [layout.PageSize]byte

// zeroPage stands in for every mapped page that has not been written yet.
// It is shared by all spaces and must never be written: ReadAliases hands
// it out, which is why its fragments are read-only.
var zeroPage page

// tlbSize is the number of entries in a TLB, a power of two. Four
// entries hold a thread's stack page and the data pages it walks; more
// measured no faster and cost heap on thousand-node clusters. Every
// thread's stack top lies at the same offset of its slot, so the
// stack-top pages of all threads map to one entry: that is why each
// resident thread keeps its own TLB rather than sharing the Space's.
// With per-thread TLBs, pm2perf recover misses 0.011 times per
// dispatch (1.49 with one TLB per Space).
const tlbSize = 4

// Space is one node's simulated virtual address space. It has no
// locking: a Space belongs to exactly one node, and every access
// happens inside an event of the one-goroutine kernel (see
// internal/simtime). That includes reads: Load32 and Load8 fill the
// Space's own TLB.
//
// Mapped memory is tracked per 64 KB chunk — one iso-address slot of
// layout.PagesPerSlot pages, the unit the runtime reserves, owns and
// migrates — not per page: the chunk map holds one entry for every
// chunk with at least one mapped page, so a range operation does one
// map lookup per chunk it crosses. A chunk marks its mapped pages in a
// bitmask and holds the host page behind each; a mapped page whose
// host page is nil has never been written and reads as zeros, and an
// unmapped page always has a nil host page. A chunk emptied by Munmap
// leaves the map and becomes the Space's one spare, which the next
// Mmap of a fresh chunk reuses, so slot map/unmap churn allocates
// nothing. Host pages come from and go back to the cluster's Pages
// list, if the Space has one.
//
// A backed page is never replaced while it is mapped — Mmap refuses
// overlap and Write only fills a nil page — so the only things that can
// stale a TLB entry are Munmap and Discard, which bump gen: every TLB
// synced to an older generation flushes at its next Sync.
type Space struct {
	// chunks holds every chunk with a mapped page, keyed by page
	// index >> chunkShift.
	chunks map[uint32]*chunk
	// spare is the last chunk Munmap emptied, or nil.
	spare *chunk
	// pages recycles host pages; nil allocates every page afresh.
	pages *Pages
	// npages counts currently mapped pages.
	npages int
	// gen counts Munmap and Discard calls (see TLB.Sync).
	gen uint64
	// tlb serves the Space's own word and byte accessors.
	tlb TLB
}

// chunkShift is log2 of the pages in a chunk: one slot's worth.
const chunkShift = layout.SlotShift - layout.PageShift

// chunk is the mapping state of one slot-sized run of pages: bit i of
// mapped is set if page i is mapped, and pg[i] is its host page — nil
// if it is unmapped or has never been written.
type chunk struct {
	pg     [layout.PagesPerSlot]*page
	mapped uint16
}

// The mapped bitmask must have a bit for every page of a chunk.
const _ = uint16(1<<layout.PagesPerSlot - 1)

// chunkMask returns the bits of chunk ci that pages [first, end) cover.
func chunkMask(ci, first, end uint32) uint16 {
	lo := max(first, ci<<chunkShift) - ci<<chunkShift
	hi := min(end, (ci+1)<<chunkShift) - ci<<chunkShift
	return uint16(uint32(1)<<hi - uint32(1)<<lo)
}

// NewSpace returns an empty address space: no page is mapped. Its host
// pages are allocated afresh and left to the Go collector.
func NewSpace() *Space { return NewSpaceOn(nil) }

// NewSpaceOn is NewSpace over the free list pages, which other Spaces
// may share; nil is NewSpace.
func NewSpaceOn(pages *Pages) *Space {
	return &Space{chunks: make(map[uint32]*chunk), pages: pages}
}

// MappedBytes returns the number of currently mapped bytes.
func (s *Space) MappedBytes() uint64 { return uint64(s.npages) * layout.PageSize }

// MappedPages returns the number of currently mapped pages.
func (s *Space) MappedPages() int { return s.npages }

func pageIndex(a Addr) uint32 { return uint32(a) >> layout.PageShift }

// pageRange returns the pages [first, end) that [addr, addr+n) touches;
// n must be positive and the range must not wrap.
func pageRange(addr Addr, n int) (first, end uint32) {
	return pageIndex(addr), pageIndex(addr+Addr(n-1)) + 1
}

// find returns the first page of [first, end) that is mapped if want
// is true, or unmapped if it is false; end if there is none.
func (s *Space) find(first, end uint32, want bool) uint32 {
	for ci := first >> chunkShift; ci<<chunkShift < end; ci++ {
		var have uint16
		if c := s.chunks[ci]; c != nil {
			have = c.mapped
		}
		if !want {
			have = ^have
		}
		if hit := have & chunkMask(ci, first, end); hit != 0 {
			return ci<<chunkShift + uint32(bits.TrailingZeros16(hit))
		}
	}
	return end
}

// pageWalk looks up the pages of a range in ascending order with one
// map lookup per chunk crossed.
type pageWalk struct {
	s  *Space
	ci uint32 // index of c, or noChunk before the first lookup
	c  *chunk
}

// noChunk is no chunk's index: a 32-bit address has 16-bit chunk indices.
const noChunk = ^uint32(0)

// slot returns the host-page slot of page pi, or nil if pi is unmapped.
func (w *pageWalk) slot(pi uint32) **page {
	if ci := pi >> chunkShift; ci != w.ci {
		w.ci, w.c = ci, w.s.chunks[ci]
	}
	bit := pi & (layout.PagesPerSlot - 1)
	if w.c == nil || w.c.mapped>>bit&1 == 0 {
		return nil
	}
	return &w.c.pg[bit]
}

// read returns the page holding a for reading: the shared zero page if
// it is mapped but untouched.
func (w *pageWalk) read(a Addr) (*page, error) {
	p := w.slot(pageIndex(a))
	if p == nil {
		return nil, &Fault{Addr: a, Op: OpRead, Why: "unmapped page"}
	}
	if *p == nil {
		return &zeroPage, nil
	}
	return *p, nil
}

// checkRange validates an [addr, addr+n) range against 32-bit wraparound.
func checkRange(addr Addr, n int, op FaultOp) error {
	if n < 0 {
		return &Fault{Addr: addr, Op: op, Why: "negative length"}
	}
	if uint64(addr)+uint64(n) > 1<<32 {
		return &Fault{Addr: addr, Op: op, Why: "range wraps address space"}
	}
	return nil
}

// Mmap maps the page-aligned range [addr, addr+n) with demand-zero pages:
// the range reads as zeros and takes no host memory until it is written.
// It fails (without mapping anything) if the range is misaligned, wraps, or
// overlaps an existing mapping — the iso-address discipline guarantees the
// runtime never legitimately double-maps a slot.
func (s *Space) Mmap(addr Addr, n int) error {
	if err := checkRange(addr, n, OpMap); err != nil {
		return err
	}
	if !layout.PageAligned(addr) || n%layout.PageSize != 0 {
		return &Fault{Addr: addr, Op: OpMap, Why: fmt.Sprintf("misaligned mapping of %d bytes", n)}
	}
	if n == 0 {
		return nil
	}
	first, end := pageRange(addr, n)
	if pi := s.find(first, end, true); pi != end {
		return &Fault{Addr: Addr(pi) << layout.PageShift, Op: OpMap, Why: "page already mapped"}
	}
	for ci := first >> chunkShift; ci<<chunkShift < end; ci++ {
		c := s.chunks[ci]
		if c == nil {
			c, s.spare = s.spare, nil
			if c == nil {
				c = new(chunk)
			}
			s.chunks[ci] = c
		}
		c.mapped |= chunkMask(ci, first, end)
	}
	s.npages += int(end - first)
	return nil
}

// Munmap unmaps the page-aligned range [addr, addr+n). Every page in the
// range must currently be mapped.
func (s *Space) Munmap(addr Addr, n int) error {
	return s.release(addr, n, OpUnmap)
}

// Discard drops the host pages behind the page-aligned range
// [addr, addr+n) but keeps it mapped: the range reads as zeros again,
// as after a fresh Mmap, and takes no host memory until it is written.
// Every page in the range must currently be mapped. It is what an
// madvise(MADV_DONTNEED) does to a cached free slot.
func (s *Space) Discard(addr Addr, n int) error {
	return s.release(addr, n, OpDiscard)
}

// release is Munmap (op OpUnmap) or Discard (OpDiscard): it drops the
// range's host pages into the free list, unmaps the range for Munmap,
// and flushes every TLB synced to s.
func (s *Space) release(addr Addr, n int, op FaultOp) error {
	if err := checkRange(addr, n, op); err != nil {
		return err
	}
	if !layout.PageAligned(addr) || n%layout.PageSize != 0 {
		verb := "unmapping"
		if op == OpDiscard {
			verb = "discard"
		}
		return &Fault{Addr: addr, Op: op, Why: fmt.Sprintf("misaligned %s of %d bytes", verb, n)}
	}
	if n > 0 {
		first, end := pageRange(addr, n)
		if pi := s.find(first, end, false); pi != end {
			return &Fault{Addr: Addr(pi) << layout.PageShift, Op: op, Why: "page not mapped"}
		}
		for ci := first >> chunkShift; ci<<chunkShift < end; ci++ {
			c, m := s.chunks[ci], chunkMask(ci, first, end)
			for b := m; b != 0; b &= b - 1 {
				if pg := &c.pg[bits.TrailingZeros16(b)]; *pg != nil {
					s.pages.put(*pg)
					*pg = nil
				}
			}
			if op == OpDiscard {
				continue
			}
			if c.mapped &^= m; c.mapped == 0 {
				delete(s.chunks, ci)
				s.spare = c
			}
		}
		if op == OpUnmap {
			s.npages -= int(end - first)
		}
	}
	s.gen++
	s.tlb.Reset()
	return nil
}

// BackedPages returns the number of pages of [addr, addr+n) that hold
// a host page: mapped and written since they were mapped or discarded.
func (s *Space) BackedPages(addr Addr, n int) int {
	if n <= 0 || uint64(addr)+uint64(n) > 1<<32 {
		return 0
	}
	first, end := pageRange(addr, n)
	w := pageWalk{s: s, ci: noChunk}
	backed := 0
	for pi := first; pi < end; pi++ {
		if p := w.slot(pi); p != nil && *p != nil {
			backed++
		}
	}
	return backed
}

// IsMapped reports whether every byte of [addr, addr+n) is mapped.
func (s *Space) IsMapped(addr Addr, n int) bool {
	if n <= 0 {
		return n == 0
	}
	if uint64(addr)+uint64(n) > 1<<32 {
		return false
	}
	first, end := pageRange(addr, n)
	return s.find(first, end, false) == end
}

// Read copies len(p) bytes from [addr, ...) into p, faulting if any byte is
// unmapped.
func (s *Space) Read(addr Addr, p []byte) error {
	if err := checkRange(addr, len(p), OpRead); err != nil {
		return err
	}
	w := pageWalk{s: s, ci: noChunk}
	for off := 0; off < len(p); {
		pg, err := w.read(addr + Addr(off))
		if err != nil {
			return err
		}
		in := int(addr+Addr(off)) & (layout.PageSize - 1)
		off += copy(p[off:], pg[in:])
	}
	return nil
}

// Write copies p into simulated memory at addr, faulting if any byte is
// unmapped. The first write to a page backs it with a host page from
// the free list, zeroed where the write does not cover it, or with a
// fresh one.
func (s *Space) Write(addr Addr, p []byte) error {
	if err := checkRange(addr, len(p), OpWrite); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	// Validate the full range before mutating anything, so a faulting
	// write has no partial effect.
	first, end := pageRange(addr, len(p))
	if pi := s.find(first, end, false); pi != end {
		return &Fault{Addr: max(Addr(pi)<<layout.PageShift, addr), Op: OpWrite, Why: "unmapped page"}
	}
	w := pageWalk{s: s, ci: noChunk}
	for off := 0; off < len(p); {
		slot := w.slot(pageIndex(addr + Addr(off)))
		in := int(addr+Addr(off)) & (layout.PageSize - 1)
		if *slot == nil {
			*slot = s.pages.take(in, min(in+len(p)-off, layout.PageSize))
		}
		off += copy((*slot)[in:], p[off:])
	}
	return nil
}

// TLBMisses returns how often the Space's own accessors missed their
// TLB (see TLB.Misses).
func (s *Space) TLBMisses() uint64 { return s.tlb.misses }

// Load32 reads a little-endian 32-bit word at addr.
func (s *Space) Load32(addr Addr) (uint32, error) {
	s.tlb.Sync(s)
	if v, ok := s.tlb.Word(addr); ok {
		return v, nil
	}
	return s.tlb.Load32(addr)
}

// Store32 writes a little-endian 32-bit word at addr.
func (s *Space) Store32(addr Addr, v uint32) error {
	s.tlb.Sync(s)
	if s.tlb.SetWord(addr, v) {
		return nil
	}
	return s.tlb.Store32(addr, v)
}

// Load8 reads one byte at addr.
func (s *Space) Load8(addr Addr) (byte, error) {
	s.tlb.Sync(s)
	return s.tlb.Load8(addr)
}

// Store8 writes one byte at addr.
func (s *Space) Store8(addr Addr, v byte) error {
	s.tlb.Sync(s)
	return s.tlb.Store8(addr, v)
}

// ReadBytes returns a fresh copy of [addr, addr+n).
func (s *Space) ReadBytes(addr Addr, n int) ([]byte, error) {
	p := make([]byte, n)
	if err := s.Read(addr, p); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadAliases returns [addr, addr+n) as a list of page-fragment slices
// that alias the simulated pages directly — no copy. The zero-copy
// migration packer hands these to the NIC's gather list. The fragments
// are read-only: an untouched page surfaces as the shared zero page,
// which every space aliases. They are only valid until the range is
// written, unmapped or discarded: a released page goes back to the
// free list, where the next Write anywhere in the cluster may reuse
// it, so callers must consume them (or copy) before releasing the
// pages. A poison build overwrites every released page to catch a
// caller that does not.
func (s *Space) ReadAliases(addr Addr, n int) ([][]byte, error) {
	if err := checkRange(addr, n, OpRead); err != nil {
		return nil, err
	}
	var out [][]byte
	w := pageWalk{s: s, ci: noChunk}
	for off := 0; off < n; {
		pg, err := w.read(addr + Addr(off))
		if err != nil {
			return nil, err
		}
		in := int(addr+Addr(off)) & (layout.PageSize - 1)
		frag := pg[in:]
		if len(frag) > n-off {
			frag = frag[:n-off]
		}
		out = append(out, frag)
		off += len(frag)
	}
	return out, nil
}

// ReadCString reads a NUL-terminated string of at most max bytes from addr.
func (s *Space) ReadCString(addr Addr, max int) (string, error) {
	out := make([]byte, 0, 32)
	for i := 0; i < max; i++ {
		b, err := s.Load8(addr + Addr(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, b)
	}
	return "", &Fault{Addr: addr, Op: OpRead, Why: "unterminated string"}
}
