package vmem

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/layout"
)

func TestMmapAndAccess(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, 2*layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := s.MappedBytes(); got != 2*layout.PageSize {
		t.Fatalf("MappedBytes = %d", got)
	}
	if got := s.MappedPages(); got != 2 {
		t.Fatalf("MappedPages = %d", got)
	}
	// Fresh pages read as zero.
	b, err := s.ReadBytes(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, make([]byte, 64)) {
		t.Fatal("fresh mapping not zero-filled")
	}
	// Round-trip a word.
	if err := s.Store32(base+100, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load32(base + 100)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef {
		t.Fatalf("Load32 = %#x", v)
	}
}

func TestCrossPageAccess(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, 2*layout.PageSize); err != nil {
		t.Fatal(err)
	}
	// A word straddling the page boundary.
	at := base + layout.PageSize - 2
	if err := s.Store32(at, 0x11223344); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load32(at)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x11223344 {
		t.Fatalf("cross-page Load32 = %#x", v)
	}
	// A large buffer spanning both pages.
	buf := make([]byte, layout.PageSize+100)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := s.Write(base+50, buf); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBytes(base+50, len(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("cross-page buffer mismatch")
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	s := NewSpace()
	if _, err := s.Load32(0x1000); !IsSegfault(err) {
		t.Fatalf("expected segfault, got %v", err)
	}
	if err := s.Store32(0x1000, 1); !IsSegfault(err) {
		t.Fatalf("expected segfault, got %v", err)
	}
	f, ok := err2fault(s.Store8(0x2345, 1))
	if !ok || f.Op != OpWrite || f.Addr != 0x2345 {
		t.Fatalf("fault detail wrong: %+v", f)
	}
}

func err2fault(err error) (*Fault, bool) {
	f, ok := err.(*Fault)
	return f, ok
}

func TestPartialRangeFaults(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	// Write starting in the mapped page, spilling into unmapped space:
	// must fault without modifying the mapped part.
	marker := []byte{1, 2, 3, 4}
	if err := s.Write(base+layout.PageSize-4, marker); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 16)
	err := s.Write(base+layout.PageSize-4, big)
	if !IsSegfault(err) {
		t.Fatalf("expected segfault, got %v", err)
	}
	got, _ := s.ReadBytes(base+layout.PageSize-4, 4)
	if !bytes.Equal(got, marker) {
		t.Fatalf("faulting write had partial effect: %v", got)
	}
	// Read across the hole faults too.
	if _, err := s.ReadBytes(base+layout.PageSize-4, 16); !IsSegfault(err) {
		t.Fatal("expected read fault")
	}
}

func TestMmapErrors(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base+1, layout.PageSize); err == nil {
		t.Fatal("misaligned mmap must fail")
	}
	if err := s.Mmap(base, layout.PageSize+1); err == nil {
		t.Fatal("non-page-multiple mmap must fail")
	}
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	// Overlap rejected atomically: nothing new mapped.
	before := s.MappedPages()
	if err := s.Mmap(base-layout.PageSize, 3*layout.PageSize); err == nil {
		t.Fatal("overlapping mmap must fail")
	}
	if s.MappedPages() != before {
		t.Fatal("failed mmap leaked pages")
	}
	// Wraparound rejected.
	if err := s.Mmap(0xFFFF_F000, 2*layout.PageSize); err == nil {
		t.Fatal("wrapping mmap must fail")
	}
}

func TestMunmap(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, 4*layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Munmap(base+layout.PageSize, 2*layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if s.IsMapped(base+layout.PageSize, 1) {
		t.Fatal("page still mapped after munmap")
	}
	if !s.IsMapped(base, layout.PageSize) || !s.IsMapped(base+3*layout.PageSize, layout.PageSize) {
		t.Fatal("munmap removed wrong pages")
	}
	if got := s.MappedBytes(); got != 2*layout.PageSize {
		t.Fatalf("MappedBytes = %d", got)
	}
	// Unmapping an unmapped page fails atomically.
	if err := s.Munmap(base, 2*layout.PageSize); err == nil {
		t.Fatal("munmap over hole must fail")
	}
	if !s.IsMapped(base, layout.PageSize) {
		t.Fatal("failed munmap removed a page")
	}
}

func TestRemapAfterUnmapIsZeroed(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Store32(base, 0x12345678); err != nil {
		t.Fatal(err)
	}
	if err := s.Munmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load32(base)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("remapped page not zeroed: %#x", v)
	}
}

func TestIsMappedEdges(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if !s.IsMapped(base, layout.PageSize) {
		t.Fatal("exact range should be mapped")
	}
	if s.IsMapped(base, layout.PageSize+1) {
		t.Fatal("range past mapping should not be mapped")
	}
	if !s.IsMapped(base+layout.PageSize-1, 1) {
		t.Fatal("last byte should be mapped")
	}
	if !s.IsMapped(base, 0) {
		t.Fatal("empty range is trivially mapped")
	}
	if s.IsMapped(0xFFFF_FFFF, 2) {
		t.Fatal("wrapping range is not mapped")
	}
}

func TestReadWriteProperty(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, 16*layout.PageSize); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		addr := base + Addr(off)
		if len(data) == 0 {
			return true
		}
		if int(off)+len(data) > 16*layout.PageSize {
			// The write overruns the mapping: it must fault and leave
			// the space untouched.
			return s.Write(addr, data) != nil
		}
		if err := s.Write(addr, data); err != nil {
			return false
		}
		got, err := s.ReadBytes(addr, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoad8Store8AndCString(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.DataBase)
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Store8(base+5, 0xAB); err != nil {
		t.Fatal(err)
	}
	b, err := s.Load8(base + 5)
	if err != nil || b != 0xAB {
		t.Fatalf("Load8 = %#x, %v", b, err)
	}
	if err := s.Write(base+16, append([]byte("hello"), 0)); err != nil {
		t.Fatal(err)
	}
	str, err := s.ReadCString(base+16, 100)
	if err != nil || str != "hello" {
		t.Fatalf("ReadCString = %q, %v", str, err)
	}
	if _, err := s.ReadCString(base+16, 3); err == nil {
		t.Fatal("unterminated string should error")
	}
}

func TestFaultErrorText(t *testing.T) {
	f := &Fault{Addr: 0xeeff0020, Op: OpRead, Why: "unmapped page"}
	want := "segmentation fault: read at 0xeeff0020 (unmapped page)"
	if f.Error() != want {
		t.Fatalf("Error() = %q, want %q", f.Error(), want)
	}
	if IsSegfault(&Fault{Op: OpMap}) {
		t.Fatal("mapping errors are not segfaults")
	}
}

func TestMmapAllocatesNoPage(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	// Warm the map so its buckets exist before measuring.
	if err := s.Mmap(base, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Munmap(base, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	mapAllocs := testing.AllocsPerRun(20, func() {
		if err := s.Mmap(base, layout.SlotSize); err != nil {
			t.Fatal(err)
		}
		if err := s.Munmap(base, layout.SlotSize); err != nil {
			t.Fatal(err)
		}
	})
	if mapAllocs != 0 {
		t.Fatalf("Mmap+Munmap of a %d-byte slot made %.0f allocations, want 0", layout.SlotSize, mapAllocs)
	}
	firstWrite := testing.AllocsPerRun(20, func() {
		if err := s.Mmap(base, layout.SlotSize); err != nil {
			t.Fatal(err)
		}
		if err := s.Store32(base+8, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Munmap(base, layout.SlotSize); err != nil {
			t.Fatal(err)
		}
	})
	if firstWrite != 1 {
		t.Fatalf("first Store32 into a fresh slot made %.0f allocations, want exactly 1 page", firstWrite)
	}
}

func TestUntouchedPagesReadZero(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	const n = 3 * layout.PageSize
	if err := s.Mmap(base, n); err != nil {
		t.Fatal(err)
	}
	// Touch only the middle page, so the range mixes backed and
	// demand-zero pages.
	if err := s.Store8(base+layout.PageSize+7, 0x5A); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	want[layout.PageSize+7] = 0x5A

	got, err := s.ReadBytes(base, n)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadBytes over untouched pages: err=%v, nonzero outside the write", err)
	}
	if v, err := s.Load32(base + 2*layout.PageSize - 2); err != nil || v != 0 {
		t.Fatalf("cross-page Load32 into untouched page = %#x, %v", v, err)
	}
	if b, err := s.Load8(base + n - 1); err != nil || b != 0 {
		t.Fatalf("Load8 of untouched page = %#x, %v", b, err)
	}
	if str, err := s.ReadCString(base, 16); err != nil || str != "" {
		t.Fatalf("ReadCString of untouched page = %q, %v", str, err)
	}
	frags, err := s.ReadAliases(base+100, n-200)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("ReadAliases gave %d fragments, want one per page", len(frags))
	}
	if got := bytes.Join(frags, nil); !bytes.Equal(got, want[100:n-100]) {
		t.Fatal("ReadAliases over untouched pages not zero")
	}
	if s.MappedPages() != 3 || s.MappedBytes() != n {
		t.Fatalf("mapped %d pages / %d bytes, want 3 / %d", s.MappedPages(), s.MappedBytes(), n)
	}
}

func TestUntouchedUnmapAndRemap(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	// A range that was never touched unmaps like any other.
	if err := s.Munmap(base, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	if s.IsMapped(base, 1) || s.MappedPages() != 0 || s.MappedBytes() != 0 {
		t.Fatal("untouched range still mapped after munmap")
	}
	if _, err := s.Load32(base); !IsSegfault(err) {
		t.Fatalf("read of unmapped untouched range: %v, want segfault", err)
	}
	if err := s.Mmap(base, layout.SlotSize); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Load32(base + layout.SlotSize - 4); err != nil || v != 0 {
		t.Fatalf("remap after unmap = %#x, %v, want zero", v, err)
	}
}

func TestDemandZeroFaults(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	end := base + layout.PageSize
	if _, err := s.ReadBytes(end-2, 4); !IsSegfault(err) {
		t.Fatalf("read past untouched page: %v, want segfault", err)
	}
	if _, err := s.ReadAliases(end-2, 4); !IsSegfault(err) {
		t.Fatalf("alias past untouched page: %v, want segfault", err)
	}
	if _, err := s.Load8(end); !IsSegfault(err) {
		t.Fatalf("Load8 just past untouched page: %v, want segfault", err)
	}
	if err := s.Write(end-2, []byte{1, 2, 3, 4}); !IsSegfault(err) {
		t.Fatalf("write past untouched page: %v, want segfault", err)
	}
	// The faulting write materialized nothing and left zeros behind.
	if got, _ := s.ReadBytes(end-2, 2); !bytes.Equal(got, []byte{0, 0}) {
		t.Fatalf("faulting write had partial effect: %v", got)
	}
	if err := s.Mmap(base, layout.PageSize); err == nil {
		t.Fatal("double mmap of an untouched page must fail")
	}
	if err := s.Munmap(base, 2*layout.PageSize); err == nil {
		t.Fatal("munmap over a hole must fail")
	}
	if !s.IsMapped(base, layout.PageSize) {
		t.Fatal("failed munmap removed the untouched page")
	}
}

// TestWriteNeverReachesZeroPage: an untouched page aliases the shared
// zero page, and the first write to it must allocate a private page
// rather than write through the alias.
func TestWriteNeverReachesZeroPage(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	before, err := s.ReadAliases(base, layout.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if &before[0][0] != &zeroPage[0] {
		t.Fatal("untouched page does not alias the shared zero page")
	}
	if err := s.Write(base, bytes.Repeat([]byte{0xEE}, layout.PageSize)); err != nil {
		t.Fatal(err)
	}
	if zeroPage != (page{}) {
		t.Fatal("a write reached the shared zero page")
	}
	after, err := s.ReadAliases(base, layout.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if &after[0][0] == &zeroPage[0] || after[0][0] != 0xEE {
		t.Fatal("written page still aliases the zero page")
	}
}

// fuzzChunks are the chunks FuzzSpace works in: three consecutive
// iso-address slots, so ranges straddle chunk boundaries, and the last
// slot of the space, where ranges wrap.
var fuzzChunks = [...]uint32{
	layout.IsoBase >> layout.SlotShift, layout.IsoBase>>layout.SlotShift + 1,
	layout.IsoBase>>layout.SlotShift + 2, 1<<(32-layout.SlotShift) - 1,
}

// spaceTape decodes FuzzSpace's tape; reads past its end yield zeros.
type spaceTape struct {
	b []byte
	i int
}

func (p *spaceTape) next() byte {
	p.i++
	if p.i > len(p.b) {
		return 0
	}
	return p.b[p.i-1]
}

// span decodes a mapping range: one or two whole slots, a run that
// straddles a chunk boundary, a run inside one chunk, or any run of up
// to 24 pages; now and then misaligned, empty or negative.
func (p *spaceTape) span() (Addr, int) {
	c, k := uint64(fuzzChunks[int(p.next())%len(fuzzChunks)])<<chunkShift, uint64(p.next())
	var first, pages uint64
	switch k % 4 {
	case 0:
		first, pages = c, layout.PagesPerSlot*(1+k>>2%2)
	case 1:
		first, pages = c+layout.PagesPerSlot-1-k>>2%4, 2+k>>4%8
	case 2:
		first, pages = c+k>>2%layout.PagesPerSlot, 1+k>>6
	default:
		first, pages = c+uint64(p.next())%(3*layout.PagesPerSlot), uint64(p.next())%25
	}
	a, n := Addr(first<<layout.PageShift), int(pages)*layout.PageSize
	switch b := p.next(); b % 16 {
	case 0:
		n += int(b >> 4)
	case 1:
		a += Addr(b >> 4)
	case 2:
		n = -n
	}
	return a, n
}

// access decodes a byte address in or just past a fuzz chunk and a
// length that is short, or now and then spans up to three pages.
func (p *spaceTape) access() (Addr, int) {
	pi := uint32(fuzzChunks[int(p.next())%len(fuzzChunks)])<<chunkShift + uint32(p.next())%(2*layout.PagesPerSlot)
	var in uint32
	switch o := uint32(p.next()); o % 4 {
	case 0: // near the start of the page
		in = o >> 2
	case 1: // near its end, so accesses cross pages, chunks or the space end
		in = layout.PageSize - 1 - o>>2
	default:
		in = (o<<8 | uint32(p.next())) % layout.PageSize
	}
	n := int(p.next())
	if n&0x80 != 0 {
		n = (n & 0x7f) * 97
	} else {
		n %= 24
	}
	return Addr(pi<<layout.PageShift + in), n
}

// FuzzSpace runs a fuzzer-chosen tape of Mmap, Munmap and Discard
// calls — whole slots, partial chunks and runs across chunk boundaries
// — interleaved with every accessor, against the per-page reference
// model of tlb_test.go. The space recycles its pages through a small
// free list, so a partial write often lands on a page that held other
// bytes. Every value, every byte and every fault must match the
// model, MappedPages and MappedBytes must agree with it after every
// step, and a failed call must leave the pages it names unchanged,
// down to which of them are backed by host memory. A thread TLB is
// synced to the space across Munmap and Discard calls as vm.Run does,
// and neither it nor the space's own TLB may ever hold a page that is
// unmapped or demand-zero, as a discarded page is.
func FuzzSpace(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		tape := make([]byte, 160)
		for i := range tape {
			tape[i] = byte(rng.Uint32())
		}
		f.Add(tape)
	}
	// Map a slot, store into it, unmap and map it again, and read the
	// stored word back as zeros.
	f.Add([]byte{0, 0, 0, 0, 3, 0, 0, 0x20, 4, 7, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0x20, 4})
	// Map a slot, store into it, discard it and read zeros, then write
	// two bytes, which recycle the discarded page, and read around them.
	f.Add([]byte{0, 0, 0, 0, 3, 0, 0, 0x20, 4, 7, 11, 0, 0, 0, 2, 0, 0, 0x20, 4, 3, 0, 0, 0x20, 2, 9, 2, 0, 0, 0x20, 4})
	// Map two slots, write across their boundary, unmap the first
	// slot's last page, read across the hole and past it, then fail to
	// unmap the two pages around the boundary and read the second again.
	f.Add([]byte{0, 0, 4, 0, 3, 0, 15, 1, 8, 0x40, 1, 0, 62, 0, 2, 0, 15, 1, 8, 2, 0, 16, 0, 4, 1, 0, 1, 0, 2, 0, 16, 0, 4})
	f.Fuzz(func(t *testing.T, b []byte) {
		s := NewSpaceOn(NewPages(2))
		ref := newRefSpace()
		var tlb TLB
		// pages returns the page indices [a, a+n) touches, clipped to
		// the space; none if n <= 0.
		pages := func(a Addr, n int) (uint32, uint32) {
			if n <= 0 {
				return 0, 0
			}
			end := min(uint64(a)+uint64(n)-1, 1<<32-1)
			return pageIndex(a), uint32(end>>layout.PageShift) + 1
		}
		// agree checks pages [first, end) against the model: mapped or
		// not, every byte, and backed by a host page or by the shared
		// zero page.
		agree := func(step int, first, end uint32) {
			for pi := first; pi != end; pi++ {
				a := Addr(pi << layout.PageShift)
				if s.IsMapped(a, layout.PageSize) != ref.mapped[pi] {
					t.Fatalf("step %d: page %#x mapped=%v, want %v", step, pi, !ref.mapped[pi], ref.mapped[pi])
				}
				if !ref.mapped[pi] {
					continue
				}
				frags, err := s.ReadAliases(a, layout.PageSize)
				want, _ := ref.read(a, layout.PageSize)
				if err != nil || len(frags) != 1 || !bytes.Equal(frags[0], want) {
					t.Fatalf("step %d: page %#x differs from the model (%v)", step, pi, err)
				}
				if backed := ref.mem[pi] != nil; (&frags[0][0] == &zeroPage[0]) == backed {
					t.Fatalf("step %d: page %#x backed=%v, want %v", step, pi, !backed, backed)
				}
			}
		}
		// checkTLB requires every entry of a TLB synced to s to hold the
		// space's own host page behind a mapped, backed page.
		checkTLB := func(step int, tl *TLB) {
			if tl.sp != s {
				return
			}
			tl.Sync(s)
			for _, e := range tl.e {
				if e.tag == 0 {
					continue
				}
				pi := e.tag - 1
				if !ref.mapped[pi] || ref.mem[pi] == nil || s.chunks[pi>>chunkShift].pg[pi&(layout.PagesPerSlot-1)] != e.pg {
					t.Fatalf("step %d: TLB holds page %#x (mapped=%v backed=%v)", step, pi, ref.mapped[pi], ref.mem[pi] != nil)
				}
			}
		}
		p := &spaceTape{b: b}
		for step := 0; p.i < len(p.b); step++ {
			code := p.next()
			var th *TLB // nil stands for the space's own accessors
			if code&0x80 != 0 {
				th = &tlb
				th.Sync(s)
			}
			var a Addr
			var n int
			var got, want any
			var gotErr, wantErr error
			switch op := code % 12; op {
			case 0, 1:
				a, n = p.span()
				if op == 0 {
					gotErr, wantErr = s.Mmap(a, n), ref.mapping(a, n, OpMap)
				} else {
					gotErr, wantErr = s.Munmap(a, n), ref.mapping(a, n, OpUnmap)
				}
			case 2:
				a, n = p.access()
				q := make([]byte, n)
				gotErr = s.Read(a, q)
				r, err := ref.read(a, n)
				if wantErr = err; err == nil {
					got, want = q, r
				}
			case 3:
				a, n = p.access()
				q := make([]byte, n)
				for k, v := 0, p.next(); k < n; k++ {
					q[k] = v + byte(k)
				}
				gotErr, wantErr = s.Write(a, q), ref.write(a, q)
			case 4:
				a, _ = p.access()
				n = 4
				v, err := threadLoad32(s, th, a)
				r, rerr := ref.read(a, 4)
				got, want, gotErr, wantErr = v, uint32(0), err, rerr
				if rerr == nil {
					want = binary.LittleEndian.Uint32(r)
				}
			case 5:
				a, _ = p.access()
				n = 4
				v := binary.LittleEndian.Uint32([]byte{p.next(), p.next(), p.next(), p.next()})
				gotErr = threadStore32(s, th, a, v)
				wantErr = ref.write(a, binary.LittleEndian.AppendUint32(nil, v))
			case 6:
				a, _ = p.access()
				n = 1
				var v byte
				if th != nil {
					v, gotErr = th.Load8(a)
				} else {
					v, gotErr = s.Load8(a)
				}
				r, err := ref.read(a, 1)
				got, want, wantErr = v, byte(0), err
				if err == nil {
					want = r[0]
				}
			case 7:
				a, _ = p.access()
				n = 1
				v := p.next()
				if th != nil {
					gotErr = th.Store8(a, v)
				} else {
					gotErr = s.Store8(a, v)
				}
				wantErr = ref.write(a, []byte{v})
			case 8:
				if p.next()%2 == 0 {
					a, n = p.span()
				} else {
					a, n = p.access()
				}
				got = s.IsMapped(a, n)
				want = n == 0 || n > 0 && ref.checkRange(a, n, OpRead) == nil && ref.hole(a, n, OpRead) == nil
			case 9:
				a, n = p.access()
				frags, err := s.ReadAliases(a, n)
				gotErr = err
				r, rerr := ref.read(a, n)
				if wantErr = rerr; err == nil && rerr == nil {
					got, want = bytes.Join(frags, nil), r
				}
			case 10:
				tlb.Reset()
			case 11:
				a, n = p.span()
				gotErr, wantErr = s.Discard(a, n), ref.mapping(a, n, OpDiscard)
			}
			if !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("step %d op %d at %#x+%d: error %v, want %v", step, code%12, a, n, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d op %d at %#x+%d: value %v, want %v", step, code%12, a, n, got, want)
			}
			if gotErr != nil {
				first, end := pages(a, n)
				agree(step, first, end)
			}
			mapped := 0
			for _, m := range ref.mapped {
				if m {
					mapped++
				}
			}
			if s.MappedPages() != mapped || s.MappedBytes() != uint64(mapped)*layout.PageSize {
				t.Fatalf("step %d: %d pages, %d bytes mapped, want %d pages", step, s.MappedPages(), s.MappedBytes(), mapped)
			}
			checkTLB(step, &tlb)
			checkTLB(step, &s.tlb)
		}
		for _, c := range fuzzChunks {
			first := c << chunkShift
			agree(-1, first, min(first+2*layout.PagesPerSlot, 1<<(32-layout.PageShift)))
		}
	})
}

// TestSpaceBookkeepingBytesPerSlot bounds the host memory a Space spends
// on each mapped and touched slot beyond the slot's backed page: the
// chunk map's entry and the chunk itself. The first heap measurement of
// a process also sees the runtime's own start-up garbage go, so the
// space is built twice and measured the second time.
func TestSpaceBookkeepingBytesPerSlot(t *testing.T) {
	const slots = 256
	heapDelta := func() int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := NewSpace()
		for i := 0; i < slots; i++ {
			a := layout.SlotBase(i)
			if err := s.Mmap(a, layout.SlotSize); err != nil {
				t.Fatal(err)
			}
			if err := s.Store32(a, 1); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	heapDelta()
	perSlot := (heapDelta() - slots*layout.PageSize) / slots
	t.Logf("%d host bytes of bookkeeping per mapped slot", perSlot)
	if perSlot > 256 {
		t.Fatalf("a mapped slot costs %d host bytes beyond its page, want at most 256", perSlot)
	}
}

// BenchmarkMmapSlot maps a 64 KB slot, backs one of its pages with a
// word store and unmaps it again — the churn of thread creation and
// migration on one node.
func BenchmarkMmapSlot(b *testing.B) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	b.ReportAllocs()
	for b.Loop() {
		if err := s.Mmap(base, layout.SlotSize); err != nil {
			b.Fatal(err)
		}
		if err := s.Store32(base+8, 1); err != nil {
			b.Fatal(err)
		}
		if err := s.Munmap(base, layout.SlotSize); err != nil {
			b.Fatal(err)
		}
	}
}
