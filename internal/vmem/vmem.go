// Package vmem implements the simulated per-node 32-bit virtual address
// space on which the whole reproduction runs.
//
// Portable Go gives no control over the placement of goroutine stacks or heap
// objects, so the paper's central mechanism — re-installing a thread's memory
// at the very same virtual addresses on another node — cannot be expressed on
// the Go runtime directly. Instead every node owns a Space: a sparse,
// page-granular map from simulated addresses to byte pages, with mmap-like
// mapping at caller-chosen addresses and hard faults on unmapped access.
// "Segmentation fault" is a first-class, catchable outcome, exactly as in the
// paper's Figures 2, 4 and 9.
package vmem

import (
	"fmt"

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
// locking: a Space belongs to exactly one node, every access happens
// inside that node's event lane, and the parallel kernel never runs
// two events of one lane concurrently (see internal/simtime) — the
// space is lane-affine state, like the scheduler and the slot table.
// That includes reads: Load32 and Load8 fill the Space's own TLB.
//
// A backed page is never replaced while it is mapped — Mmap refuses
// overlap and Write only fills a nil page — so the one thing that can
// stale a TLB entry is Munmap, which bumps gen: every TLB synced to an
// older generation flushes at its next Sync.
type Space struct {
	// pages holds every mapped page; a nil value is a mapped page that
	// has never been written and reads as zeros.
	pages map[uint32]*page
	// gen counts Munmap calls (see TLB.Sync).
	gen uint64
	// tlb serves the Space's own word and byte accessors.
	tlb TLB
	// mappedBytes counts currently mapped memory, for accounting tests.
	mappedBytes uint64
}

// NewSpace returns an empty address space: no page is mapped.
func NewSpace() *Space {
	return &Space{pages: make(map[uint32]*page)}
}

// MappedBytes returns the number of currently mapped bytes.
func (s *Space) MappedBytes() uint64 { return s.mappedBytes }

// MappedPages returns the number of currently mapped pages.
func (s *Space) MappedPages() int { return len(s.pages) }

func pageIndex(a Addr) uint32 { return uint32(a) >> layout.PageShift }

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
	npages := n / layout.PageSize
	first := pageIndex(addr)
	for i := 0; i < npages; i++ {
		if _, ok := s.pages[first+uint32(i)]; ok {
			return &Fault{Addr: addr + Addr(i*layout.PageSize), Op: OpMap, Why: "page already mapped"}
		}
	}
	for i := 0; i < npages; i++ {
		s.pages[first+uint32(i)] = nil
	}
	s.mappedBytes += uint64(n)
	return nil
}

// Munmap unmaps the page-aligned range [addr, addr+n). Every page in the
// range must currently be mapped.
func (s *Space) Munmap(addr Addr, n int) error {
	if err := checkRange(addr, n, OpUnmap); err != nil {
		return err
	}
	if !layout.PageAligned(addr) || n%layout.PageSize != 0 {
		return &Fault{Addr: addr, Op: OpUnmap, Why: fmt.Sprintf("misaligned unmapping of %d bytes", n)}
	}
	npages := n / layout.PageSize
	first := pageIndex(addr)
	for i := 0; i < npages; i++ {
		if _, ok := s.pages[first+uint32(i)]; !ok {
			return &Fault{Addr: addr + Addr(i*layout.PageSize), Op: OpUnmap, Why: "page not mapped"}
		}
	}
	for i := 0; i < npages; i++ {
		delete(s.pages, first+uint32(i))
	}
	s.gen++
	s.tlb.Reset()
	s.mappedBytes -= uint64(n)
	return nil
}

// IsMapped reports whether every byte of [addr, addr+n) is mapped.
func (s *Space) IsMapped(addr Addr, n int) bool {
	if n <= 0 {
		return n == 0
	}
	if uint64(addr)+uint64(n) > 1<<32 {
		return false
	}
	for pi := pageIndex(addr); pi <= pageIndex(addr+Addr(n-1)); pi++ {
		if _, ok := s.pages[pi]; !ok {
			return false
		}
	}
	return true
}

// readPage returns the page holding a for reading: the shared zero page
// if it is mapped but untouched.
func (s *Space) readPage(a Addr) (*page, error) {
	pg, ok := s.pages[pageIndex(a)]
	if !ok {
		return nil, &Fault{Addr: a, Op: OpRead, Why: "unmapped page"}
	}
	if pg == nil {
		return &zeroPage, nil
	}
	return pg, nil
}

// Read copies len(p) bytes from [addr, ...) into p, faulting if any byte is
// unmapped.
func (s *Space) Read(addr Addr, p []byte) error {
	if err := checkRange(addr, len(p), OpRead); err != nil {
		return err
	}
	off := 0
	for off < len(p) {
		pg, err := s.readPage(addr + Addr(off))
		if err != nil {
			return err
		}
		in := int(addr+Addr(off)) & (layout.PageSize - 1)
		n := copy(p[off:], pg[in:])
		off += n
	}
	return nil
}

// Write copies p into simulated memory at addr, faulting if any byte is
// unmapped. The first write to a page allocates its host memory.
func (s *Space) Write(addr Addr, p []byte) error {
	if err := checkRange(addr, len(p), OpWrite); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	// Validate the full range before mutating anything, so a faulting
	// write has no partial effect.
	for pi := pageIndex(addr); pi <= pageIndex(addr+Addr(len(p)-1)); pi++ {
		if _, ok := s.pages[pi]; !ok {
			fa := Addr(pi) << layout.PageShift
			if fa < addr {
				fa = addr
			}
			return &Fault{Addr: fa, Op: OpWrite, Why: "unmapped page"}
		}
	}
	off := 0
	for off < len(p) {
		pi := pageIndex(addr + Addr(off))
		pg := s.pages[pi]
		if pg == nil {
			pg = new(page)
			s.pages[pi] = pg
		}
		in := int(addr+Addr(off)) & (layout.PageSize - 1)
		n := copy(pg[in:], p[off:])
		off += n
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
// written or unmapped; callers must consume them (or copy) before
// releasing the pages.
func (s *Space) ReadAliases(addr Addr, n int) ([][]byte, error) {
	if err := checkRange(addr, n, OpRead); err != nil {
		return nil, err
	}
	var out [][]byte
	off := 0
	for off < n {
		pg, err := s.readPage(addr + Addr(off))
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
