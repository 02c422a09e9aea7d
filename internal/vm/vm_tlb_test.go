package vm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/layout"
	"repro/internal/vmem"
)

// funcEnv runs f for every builtin and returns to the thread.
type funcEnv func()

func (f funcEnv) Builtin(uint32, [4]uint32) BuiltinResult {
	f()
	return BuiltinResult{Ctl: CtlReturn}
}

// cellPage is a one-page mapping beside the harness's stack slot.
const cellPage = layout.IsoBase + layout.SlotSize

// cellSrc stores 0x1111 into cellPage+8 and loads it back, so the page
// is backed and cached, calls a builtin, and loads the word again into
// r4.
var cellSrc = fmt.Sprintf(`
.program cell
main:
    loadi r1, %#x
    loadi r2, 0x1111
    store [r1+8], r2
    load  r3, [r1+8]
    callb yield
    load  r4, [r1+8]
    halt
`, cellPage)

// tlbHarness returns cellSrc's thread, with its own TLB, over a space
// where cellPage is mapped.
func tlbHarness(t *testing.T) (*Thread, *vmem.Space, func(Env) Status) {
	t.Helper()
	im, sp, th, _ := harness(t, cellSrc)
	if err := sp.Mmap(cellPage, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	th.TLB = new(vmem.TLB)
	return th, sp, func(env Env) Status { return Run(im, sp, th, env, 100) }
}

// TestTLBUnmapInBuiltinFaults: a builtin that unmaps the page the
// thread just loaded from makes the next load fault, with the fault an
// uncached access gives.
func TestTLBUnmapInBuiltinFaults(t *testing.T) {
	th, sp, run := tlbHarness(t)
	st := run(funcEnv(func() {
		if th.TLB.Entries() == 0 {
			t.Error("the load before the builtin left the TLB empty")
		}
		if err := sp.Munmap(cellPage, layout.PageSize); err != nil {
			t.Fatal(err)
		}
	}))
	if th.Regs.R[3] != 0x1111 {
		t.Fatalf("r3 = %#x, want 0x1111", th.Regs.R[3])
	}
	_, want := vmem.NewSpace().Load32(cellPage + 8)
	if st.Kind != Faulted || !reflect.DeepEqual(st.Fault, want) {
		t.Fatalf("status %v, fault %v; want a fault equal to %v", st.Kind, st.Fault, want)
	}
	if f := st.Fault.(*vmem.Fault); f.Addr != cellPage+8 || f.Op != vmem.OpRead {
		t.Fatalf("fault %+v", f)
	}
}

// TestTLBRemapInBuiltinSeesNewBytes: a builtin that unmaps, remaps and
// writes the cached page makes the next load see the new bytes, not
// the unmapped page's.
func TestTLBRemapInBuiltinSeesNewBytes(t *testing.T) {
	th, sp, run := tlbHarness(t)
	st := run(funcEnv(func() {
		if err := sp.Munmap(cellPage, layout.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := sp.Mmap(cellPage, layout.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := sp.Store32(cellPage+8, 0x2222); err != nil {
			t.Fatal(err)
		}
	}))
	if st.Kind != Exited {
		t.Fatalf("status %v (%v)", st.Kind, st.Fault)
	}
	if th.Regs.R[3] != 0x1111 || th.Regs.R[4] != 0x2222 {
		t.Fatalf("r3, r4 = %#x, %#x; want 0x1111, 0x2222", th.Regs.R[3], th.Regs.R[4])
	}
}

// TestTLBUnmapBetweenRunsFaults: memory unmapped while the thread is
// off the processor is seen at the next Run's entry.
func TestTLBUnmapBetweenRunsFaults(t *testing.T) {
	th, sp, run := tlbHarness(t)
	if st := run(&testEnv{results: map[uint32]BuiltinResult{}}); st.Kind != Exited {
		t.Fatalf("status %v (%v)", st.Kind, st.Fault)
	}
	if err := sp.Munmap(cellPage, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	th.Regs.PC -= 8 // back to the final load
	if st := run(nil); st.Kind != Faulted || !vmem.IsSegfault(st.Fault) {
		t.Fatalf("status %v (%v), want a segfault", st.Kind, st.Fault)
	}
}

// TestTLBFlushesAcrossSpaces: a TLB synced to one space flushes when
// the thread runs against another, as after a migration, even though
// both spaces are at the same generation.
func TestTLBFlushesAcrossSpaces(t *testing.T) {
	th, src, run := tlbHarness(t)
	if st := run(&testEnv{results: map[uint32]BuiltinResult{}}); st.Kind != Exited {
		t.Fatalf("status %v (%v)", st.Kind, st.Fault)
	}
	im, dst, _, _ := harness(t, cellSrc)
	if err := dst.Mmap(cellPage, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := dst.Store32(cellPage+8, 0x3333); err != nil {
		t.Fatal(err)
	}
	if err := src.Store32(cellPage+8, 0x4444); err != nil {
		t.Fatal(err)
	}
	th.Regs.PC -= 8 // back to the final load
	if st := Run(im, dst, th, nil, 100); st.Kind != Exited {
		t.Fatalf("status %v (%v)", st.Kind, st.Fault)
	}
	if th.Regs.R[4] != 0x3333 {
		t.Fatalf("r4 = %#x after the move, want the destination's 0x3333", th.Regs.R[4])
	}
}
