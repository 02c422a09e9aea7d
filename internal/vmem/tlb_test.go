package vmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/layout"
)

// TestMunmapInvalidatesTLB: a page cached by a store, unmapped and mapped
// again at the same address must read as zeros, and the next store must
// back it with a fresh page rather than write into the unmapped one,
// which keeps its bytes (or, in a poison build, the poison fill).
func TestMunmapInvalidatesTLB(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Store32(base+8, 0xCAFEF00D); err != nil {
		t.Fatal(err)
	}
	// The first store backs the page; this load caches it.
	if v, err := s.Load32(base + 8); err != nil || v != 0xCAFEF00D {
		t.Fatalf("Load32 = %#x, %v", v, err)
	}
	old, err := s.ReadAliases(base, layout.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Munmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Load32(base + 8); err != nil || v != 0 {
		t.Fatalf("Load32 after munmap+mmap = %#x, %v, want 0", v, err)
	}
	if b, err := s.Load8(base + 8); err != nil || b != 0 {
		t.Fatalf("Load8 after munmap+mmap = %#x, %v, want 0", b, err)
	}
	if err := s.Store32(base+8, 7); err != nil {
		t.Fatal(err)
	}
	want := uint32(0xCAFEF00D)
	if Poison {
		want = 0x01010101 * poisonByte
	}
	if got := binary.LittleEndian.Uint32(old[0][8:]); got != want {
		t.Fatalf("store after remap wrote into the unmapped page (it now holds %#x, want %#x)", got, want)
	}
	now, err := s.ReadAliases(base, layout.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if &now[0][0] == &old[0][0] {
		t.Fatal("remapped page reuses the unmapped page")
	}
	if v, err := s.Load32(base + 8); err != nil || v != 7 {
		t.Fatalf("Load32 after remap and store = %#x, %v, want 7", v, err)
	}
}

// refSpace is a per-page reference model of Space: a set of mapped page
// indices and, for each mapped page written since it was mapped, its
// bytes — so a page is in mem exactly when Space backs it.
type refSpace struct {
	mapped map[uint32]bool
	mem    map[uint32]*page
}

func newRefSpace() *refSpace {
	return &refSpace{mapped: map[uint32]bool{}, mem: map[uint32]*page{}}
}

func (r *refSpace) checkRange(addr Addr, n int, op FaultOp) error {
	if n < 0 {
		return &Fault{Addr: addr, Op: op, Why: "negative length"}
	}
	if uint64(addr)+uint64(n) > 1<<32 {
		return &Fault{Addr: addr, Op: op, Why: "range wraps address space"}
	}
	return nil
}

// hole returns the fault for the first unmapped page of [addr, addr+n),
// addressed at its first byte inside the range, or nil.
func (r *refSpace) hole(addr Addr, n int, op FaultOp) error {
	for a := uint64(addr); a < uint64(addr)+uint64(n); a = (a>>layout.PageShift + 1) << layout.PageShift {
		if !r.mapped[uint32(a>>layout.PageShift)] {
			return &Fault{Addr: Addr(a), Op: op, Why: "unmapped page"}
		}
	}
	return nil
}

func (r *refSpace) read(addr Addr, n int) ([]byte, error) {
	if err := r.checkRange(addr, n, OpRead); err != nil {
		return nil, err
	}
	if err := r.hole(addr, n, OpRead); err != nil {
		return nil, err
	}
	p := make([]byte, n)
	for off := 0; off < n; {
		a := uint32(addr) + uint32(off)
		in := a & (layout.PageSize - 1)
		k := min(n-off, layout.PageSize-int(in))
		if pg := r.mem[a>>layout.PageShift]; pg != nil {
			copy(p[off:off+k], pg[in:])
		}
		off += k
	}
	return p, nil
}

func (r *refSpace) write(addr Addr, p []byte) error {
	if err := r.checkRange(addr, len(p), OpWrite); err != nil {
		return err
	}
	if err := r.hole(addr, len(p), OpWrite); err != nil {
		return err
	}
	for off := 0; off < len(p); {
		a := uint32(addr) + uint32(off)
		pg := r.mem[a>>layout.PageShift]
		if pg == nil {
			pg = new(page)
			r.mem[a>>layout.PageShift] = pg
		}
		off += copy(pg[a&(layout.PageSize-1):], p[off:])
	}
	return nil
}

func (r *refSpace) mapping(addr Addr, n int, op FaultOp) error {
	if err := r.checkRange(addr, n, op); err != nil {
		return err
	}
	verb := "mapping"
	switch op {
	case OpUnmap:
		verb = "unmapping"
	case OpDiscard:
		verb = "discard"
	}
	if !layout.PageAligned(addr) || n%layout.PageSize != 0 {
		return &Fault{Addr: addr, Op: op, Why: fmt.Sprintf("misaligned %s of %d bytes", verb, n)}
	}
	first := uint32(addr) >> layout.PageShift
	for i := 0; i < n/layout.PageSize; i++ {
		if r.mapped[first+uint32(i)] == (op == OpMap) {
			why := "page already mapped"
			if op != OpMap {
				why = "page not mapped"
			}
			return &Fault{Addr: addr + Addr(i*layout.PageSize), Op: op, Why: why}
		}
	}
	for i := 0; i < n/layout.PageSize; i++ {
		if op != OpDiscard {
			r.mapped[first+uint32(i)] = op == OpMap
		}
		delete(r.mem, first+uint32(i))
	}
	return nil
}

// TestTLBDifferential drives a Space and the reference model through the
// same seeded mix of mappings and accesses — aligned, unaligned,
// page-crossing, unmapped and wrapping, over more pages than the TLB has
// entries — and requires identical values and faults.
func TestTLBDifferential(t *testing.T) {
	// Sixteen pages from the iso-address area, so several collide in
	// every TLB entry, plus the first and the last page of the space.
	var pool []uint32
	for i := uint32(0); i < 4*tlbSize; i++ {
		pool = append(pool, layout.IsoBase>>layout.PageShift+i)
	}
	pool = append(pool, 0, 1<<(32-layout.PageShift)-1)

	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		s := NewSpace()
		ref := newRefSpace()
		addr := func() Addr {
			pi := pool[rng.IntN(len(pool))]
			var in uint32
			switch rng.IntN(3) {
			case 0: // near the start of the page
				in = uint32(rng.IntN(8))
			case 1: // near its end, so words cross or wrap
				in = layout.PageSize - 1 - uint32(rng.IntN(8))
			default:
				in = uint32(rng.IntN(layout.PageSize))
			}
			return Addr(pi<<layout.PageShift + in)
		}
		span := func() (Addr, int) {
			pi := pool[rng.IntN(len(pool))]
			n := (1 + rng.IntN(3)) * layout.PageSize
			if rng.IntN(10) == 0 {
				n += 1 + rng.IntN(layout.PageSize-1)
			}
			return Addr(pi << layout.PageShift), n
		}
		// length is short, sometimes empty, and now and then spans
		// up to two pages.
		length := func() int {
			if rng.IntN(8) == 0 {
				return rng.IntN(2 * layout.PageSize)
			}
			return rng.IntN(16)
		}
		for step := 0; step < 20000; step++ {
			var got, want any
			var gotErr, wantErr error
			op := rng.IntN(10)
			switch op {
			case 0:
				a, n := span()
				gotErr, wantErr = s.Mmap(a, n), ref.mapping(a, n, OpMap)
			case 1:
				a, n := span()
				gotErr, wantErr = s.Munmap(a, n), ref.mapping(a, n, OpUnmap)
			case 2:
				a := addr()
				var v uint32
				v, gotErr = s.Load32(a)
				p, err := ref.read(a, 4)
				got, wantErr = v, err
				if err == nil {
					want = binary.LittleEndian.Uint32(p)
				} else {
					want = uint32(0)
				}
			case 3:
				a, v := addr(), rng.Uint32()
				gotErr = s.Store32(a, v)
				wantErr = ref.write(a, binary.LittleEndian.AppendUint32(nil, v))
			case 4:
				a := addr()
				var b byte
				b, gotErr = s.Load8(a)
				p, err := ref.read(a, 1)
				got, wantErr = b, err
				if err == nil {
					want = p[0]
				} else {
					want = byte(0)
				}
			case 5:
				a, v := addr(), byte(rng.Uint32())
				gotErr, wantErr = s.Store8(a, v), ref.write(a, []byte{v})
			case 6, 7:
				a, n := addr(), length()
				p := make([]byte, n)
				gotErr = s.Read(a, p)
				q, err := ref.read(a, n)
				wantErr = err
				if err == nil {
					got, want = p, q
				}
			default:
				a := addr()
				p := make([]byte, length())
				for i := range p {
					p[i] = byte(rng.Uint32())
				}
				gotErr, wantErr = s.Write(a, p), ref.write(a, p)
			}
			if !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("seed %d step %d op %d: error %v, want %v", seed, step, op, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d op %d: value %v, want %v", seed, step, op, got, want)
			}
		}
		// The whole pool must agree at the end, byte for byte.
		for _, pi := range pool {
			a := Addr(pi << layout.PageShift)
			if s.IsMapped(a, layout.PageSize) != ref.mapped[pi] {
				t.Fatalf("seed %d: page %#x mapped=%v, want %v", seed, pi, !ref.mapped[pi], ref.mapped[pi])
			}
			if !ref.mapped[pi] {
				continue
			}
			got, err := s.ReadBytes(a, layout.PageSize)
			want, _ := ref.read(a, layout.PageSize)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("seed %d: page %#x differs from the model (%v)", seed, pi, err)
			}
		}
	}
}

// fuzzPages are the pages FuzzTLB touches: eight iso-address pages, two
// to a TLB entry, and the last page of the space, where words wrap.
var fuzzPages = [...]uint32{
	layout.IsoBase>>layout.PageShift + 0, layout.IsoBase>>layout.PageShift + 1,
	layout.IsoBase>>layout.PageShift + 2, layout.IsoBase>>layout.PageShift + 3,
	layout.IsoBase>>layout.PageShift + 4, layout.IsoBase>>layout.PageShift + 5,
	layout.IsoBase>>layout.PageShift + 6, layout.IsoBase>>layout.PageShift + 7,
	1<<(32-layout.PageShift) - 1,
}

// threadLoad32 and threadStore32 access a word the way the interpreter
// does: the inlined hit path first, then the TLB's miss path. A nil TLB
// stands for the space's own accessors.
func threadLoad32(s *Space, tlb *TLB, a Addr) (uint32, error) {
	if tlb == nil {
		return s.Load32(a)
	}
	if v, ok := tlb.Word(a); ok {
		return v, nil
	}
	return tlb.Load32(a)
}

func threadStore32(s *Space, tlb *TLB, a Addr, v uint32) error {
	if tlb == nil {
		return s.Store32(a, v)
	}
	if tlb.SetWord(a, v) {
		return nil
	}
	return tlb.Store32(a, v)
}

// FuzzTLB runs a fuzzer-chosen tape of Mmap, Munmap, Write and word and
// byte accesses over two spaces. Each access goes through the space's
// own accessors or through one of two thread TLBs, synced to the space
// it reads right before the access as vm.Run does, so a TLB meets
// unmappings from other accessors, several generations and a move to
// the other space. A tape op may also reset a thread TLB, as the
// scheduler does when a thread leaves the run queue. Every value and
// fault must match a byte-map reference model of each space, and the
// pages must agree byte for byte at the end.
func FuzzTLB(f *testing.F) {
	// Back page 0 through TLB 1, read it, unmap and remap it through
	// the space, and read it through the TLB again.
	f.Add([]byte{0, 0, 0, 0, 3, 1, 0, 8, 1, 2, 3, 4, 2, 1, 0, 8, 1, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 8})
	// Two pages sharing an entry, through both TLBs and both spaces.
	f.Add([]byte{0, 0, 0, 0, 0, 4, 4, 0, 3, 2, 4, 12, 9, 9, 9, 9, 3, 6, 4, 12, 7, 7, 7, 7, 2, 2, 0, 12, 2, 6, 4, 12, 7, 1, 0, 0, 2, 1, 4, 12})
	// Words and bytes at the end of a page and of the space.
	f.Add([]byte{0, 0, 8, 0, 3, 1, 8, 5, 1, 2, 3, 4, 2, 2, 8, 5, 4, 1, 8, 1, 5, 2, 8, 1, 0xff, 6, 0, 8, 1, 5})
	f.Fuzz(func(t *testing.T, tape []byte) {
		spaces := [2]*Space{NewSpace(), NewSpace()}
		refs := [2]*refSpace{newRefSpace(), newRefSpace()}
		var tlbs [2]TLB
		i := 0
		next := func() byte {
			if i >= len(tape) {
				i++
				return 0
			}
			i++
			return tape[i-1]
		}
		for step := 0; i < len(tape); step++ {
			op, who := next()%8, next()
			s, ref := spaces[who>>2&1], refs[who>>2&1]
			var tlb *TLB
			if w := who & 3; w == 1 || w == 2 {
				tlb = &tlbs[w-1]
				tlb.Sync(s)
			}
			pi := fuzzPages[int(next())%len(fuzzPages)]
			var in uint32
			switch o := uint32(next()); o % 4 {
			case 0: // near the start of the page
				in = o >> 2
			case 1: // near its end, so words cross or wrap
				in = layout.PageSize - 1 - o>>2
			default:
				in = (o<<8 | uint32(next())) % layout.PageSize
			}
			a := Addr(pi<<layout.PageShift + in)
			var got, want any
			var gotErr, wantErr error
			switch op {
			case 0, 1:
				a, n := Addr(pi<<layout.PageShift), (1+int(in)%3)*layout.PageSize
				if op == 0 {
					gotErr, wantErr = s.Mmap(a, n), ref.mapping(a, n, OpMap)
				} else {
					gotErr, wantErr = s.Munmap(a, n), ref.mapping(a, n, OpUnmap)
				}
			case 2:
				var v uint32
				v, gotErr = threadLoad32(s, tlb, a)
				p, err := ref.read(a, 4)
				got, want, wantErr = v, uint32(0), err
				if err == nil {
					want = binary.LittleEndian.Uint32(p)
				}
			case 3:
				v := binary.LittleEndian.Uint32([]byte{next(), next(), next(), next()})
				gotErr = threadStore32(s, tlb, a, v)
				wantErr = ref.write(a, binary.LittleEndian.AppendUint32(nil, v))
			case 4:
				var b byte
				if tlb != nil {
					b, gotErr = tlb.Load8(a)
				} else {
					b, gotErr = s.Load8(a)
				}
				p, err := ref.read(a, 1)
				got, want, wantErr = b, byte(0), err
				if err == nil {
					want = p[0]
				}
			case 5:
				v := next()
				if tlb != nil {
					gotErr = tlb.Store8(a, v)
				} else {
					gotErr = s.Store8(a, v)
				}
				wantErr = ref.write(a, []byte{v})
			case 6:
				p := make([]byte, next()%16)
				for k := range p {
					p[k] = next()
				}
				gotErr, wantErr = s.Write(a, p), ref.write(a, p)
			case 7:
				if tlb != nil {
					tlb.Reset()
				}
			}
			if !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("step %d op %d at %#x: error %v, want %v", step, op, a, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d op %d at %#x: value %v, want %v", step, op, a, got, want)
			}
		}
		for k, s := range spaces {
			for _, pi := range fuzzPages {
				a := Addr(pi << layout.PageShift)
				if s.IsMapped(a, layout.PageSize) != refs[k].mapped[pi] {
					t.Fatalf("space %d page %#x: mapped=%v, want %v", k, pi, !refs[k].mapped[pi], refs[k].mapped[pi])
				}
				if !refs[k].mapped[pi] {
					continue
				}
				got, err := s.ReadBytes(a, layout.PageSize)
				want, _ := refs[k].read(a, layout.PageSize)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("space %d page %#x differs from the model (%v)", k, pi, err)
				}
			}
		}
	})
}

// TestAccessorsAllocateNothing pins the word and byte accessors at zero
// host allocations on a backed page.
func TestAccessorsAllocateNothing(t *testing.T) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, layout.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Store32(base, 1); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func() error{
		"Load32":  func() error { _, err := s.Load32(base + 16); return err },
		"Store32": func() error { return s.Store32(base+16, 2) },
		"Load8":   func() error { _, err := s.Load8(base + 17); return err },
		"Store8":  func() error { return s.Store8(base+17, 3) },
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s on a backed page made %.0f allocations, want 0", name, allocs)
		}
	}
}

// accessCase is an address pattern a word benchmark cycles through.
// Access i goes to addrs[i%len(addrs)] through tlbs[i%len(tlbs)], synced
// first as vm.Run does at a thread switch, or through the Space's own
// accessors if tlbs is empty.
type accessCase struct {
	name  string
	addrs []Addr
	tlbs  []*TLB
}

// accessCases returns a space with backed pages and the patterns to
// benchmark on it: one page for "hit"; two pages that share a TLB entry
// for "miss", so every access misses and then fills the entry; and the
// same two pages through two thread TLBs taking turns for "switch",
// where every access hits its own thread's TLB.
func accessCases(b *testing.B) (*Space, []accessCase) {
	s := NewSpace()
	base := Addr(layout.IsoBase)
	if err := s.Mmap(base, (tlbSize+1)*layout.PageSize); err != nil {
		b.Fatal(err)
	}
	for i := 0; i <= tlbSize; i++ {
		if err := s.Store8(base+Addr(i*layout.PageSize), 1); err != nil {
			b.Fatal(err)
		}
	}
	shared := []Addr{base + 64, base + tlbSize*layout.PageSize + 64}
	return s, []accessCase{
		{name: "hit", addrs: []Addr{base + 64}},
		{name: "miss", addrs: shared},
		{name: "switch", addrs: shared, tlbs: []*TLB{new(TLB), new(TLB)}},
	}
}

var sink uint32

func BenchmarkLoad32(b *testing.B) {
	s, cases := accessCases(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var sum uint32
			for i := 0; b.Loop(); i++ {
				a := c.addrs[i%len(c.addrs)]
				var v uint32
				var err error
				if c.tlbs == nil {
					v, err = s.Load32(a)
				} else {
					t := c.tlbs[i%len(c.tlbs)]
					t.Sync(s)
					v, err = threadLoad32(s, t, a)
				}
				if err != nil {
					b.Fatal(err)
				}
				sum += v
			}
			sink = sum
		})
	}
}

func BenchmarkStore32(b *testing.B) {
	s, cases := accessCases(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				a := c.addrs[i%len(c.addrs)]
				var err error
				if c.tlbs == nil {
					err = s.Store32(a, uint32(i))
				} else {
					t := c.tlbs[i%len(c.tlbs)]
					t.Sync(s)
					err = threadStore32(s, t, a, uint32(i))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
