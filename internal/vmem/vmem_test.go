package vmem

import (
	"bytes"
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
