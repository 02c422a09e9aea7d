package bitmap

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/layout"
)

func TestSetClearTest(t *testing.T) {
	b := New(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	for i := 0; i < 200; i++ {
		want := i%3 == 0
		if got := b.Test(i); got != want {
			t.Fatalf("Test(%d) = %v, want %v", i, got, want)
		}
	}
	b.Clear(0)
	if b.Test(0) {
		t.Fatal("Clear(0) did not clear")
	}
	if got, want := b.Count(), 66; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, f := range []func(){
		func() { b.Set(10) },
		func() { b.Clear(-1) },
		func() { b.Test(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range index")
				}
			}()
			f()
		}()
	}
}

func TestFirstSet(t *testing.T) {
	b := New(300)
	if b.FirstSet(0) != -1 {
		t.Fatal("FirstSet on empty map should be -1")
	}
	b.Set(5)
	b.Set(70)
	b.Set(299)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 70}, {70, 70}, {71, 299}, {299, 299}, {300, -1}, {-5, 5},
	}
	for _, c := range cases {
		if got := b.FirstSet(c.from); got != c.want {
			t.Errorf("FirstSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

// findRunRef is a straightforward reference implementation of first-fit run
// search, used to validate the optimized FindRun.
func findRunRef(b *Bitmap, from, n int) int {
	for i := from; i+n <= b.Len(); i++ {
		ok := true
		for k := 0; k < n; k++ {
			if !b.Test(i + k) {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

func TestFindRunBasic(t *testing.T) {
	b := New(64)
	b.SetRun(10, 3)
	b.SetRun(20, 8)
	if got := b.FindRun(1); got != 10 {
		t.Errorf("FindRun(1) = %d, want 10", got)
	}
	if got := b.FindRun(3); got != 10 {
		t.Errorf("FindRun(3) = %d, want 10", got)
	}
	if got := b.FindRun(4); got != 20 {
		t.Errorf("FindRun(4) = %d, want 20", got)
	}
	if got := b.FindRun(8); got != 20 {
		t.Errorf("FindRun(8) = %d, want 20", got)
	}
	if got := b.FindRun(9); got != -1 {
		t.Errorf("FindRun(9) = %d, want -1", got)
	}
	if got := b.FindRunFrom(11, 3); got != 20 {
		t.Errorf("FindRunFrom(11, 3) = %d, want 20", got)
	}
}

func TestFindRunAtEnd(t *testing.T) {
	b := New(130)
	b.SetRun(127, 3)
	if got := b.FindRun(3); got != 127 {
		t.Errorf("FindRun(3) = %d, want 127", got)
	}
	if got := b.FindRun(4); got != -1 {
		t.Errorf("FindRun(4) = %d, want -1", got)
	}
}

func TestFindRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(256)
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		run := 1 + rng.Intn(10)
		from := rng.Intn(n)
		if got, want := b.FindRunFrom(from, run), findRunRef(b, from, run); got != want {
			t.Fatalf("trial %d: FindRunFrom(%d, %d) = %d, want %d on %v", trial, from, run, got, want, b)
		}
	}
}

func TestOrAndNotIntersects(t *testing.T) {
	a := New(100)
	b := New(100)
	a.SetRun(0, 10)
	b.SetRun(5, 10)
	if !a.Intersects(b) {
		t.Error("expected intersection")
	}
	c := a.Clone()
	c.Or(b)
	if got := c.Count(); got != 15 {
		t.Errorf("Or count = %d, want 15", got)
	}
	c.AndNot(b)
	if got := c.Count(); got != 5 {
		t.Errorf("AndNot count = %d, want 5", got)
	}
	if c.Intersects(b) {
		t.Error("AndNot left an intersection")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 57344} {
		b := New(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		data := b.Bytes()
		if want := (n + 7) / 8; len(data) != want {
			t.Fatalf("n=%d: Bytes len %d, want %d", n, len(data), want)
		}
		got, err := FromBytes(n, data)
		if err != nil {
			t.Fatalf("n=%d: FromBytes: %v", n, err)
		}
		if !got.Equal(b) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestFromBytesRejectsBadLength(t *testing.T) {
	if _, err := FromBytes(16, make([]byte, 3)); err == nil {
		t.Error("expected error for wrong payload length")
	}
}

// TestDecodersRejectPaddingBits: a payload that sets bits beyond the map
// length is not a serialization of any map. Before the decoders checked,
// FromBytes(10, {0xff, 0xff}) counted 16 bits and was not Equal to the
// full 10-bit map.
func TestDecodersRejectPaddingBits(t *testing.T) {
	bad := []byte{0xff, 0xff}
	if _, err := FromBytes(10, bad); err == nil {
		t.Error("FromBytes accepted padding bits beyond n")
	}
	b := New(10)
	if err := b.OrBytes(bad); err == nil {
		t.Error("OrBytes accepted padding bits beyond n")
	}
	if err := b.Load(bad, nil); err == nil {
		t.Error("Load accepted padding bits beyond n")
	}
	if b.Count() != 0 {
		t.Fatalf("a rejected payload changed the map: %s", b)
	}
	full := New(10)
	full.SetRun(0, 10)
	got, err := FromBytes(10, []byte{0xff, 0x03})
	if err != nil || !got.Equal(full) || got.Count() != 10 {
		t.Fatalf("FromBytes(full 10-bit map) = %v, %v", got, err)
	}
}

// TestAppendBytes: appending the serialization to a non-empty slice
// keeps the prefix and equals Bytes, for word-aligned and ragged sizes.
func TestAppendBytes(t *testing.T) {
	for _, n := range []int{1, 9, 64, 70, 200} {
		b := New(n)
		for i := 0; i < n; i += 3 {
			b.Set(i)
		}
		out := b.AppendBytes([]byte{0xaa})
		if out[0] != 0xaa || !bytes.Equal(out[1:], b.Bytes()) {
			t.Fatalf("n=%d: AppendBytes = %x, want aa%x", n, out, b.Bytes())
		}
	}
}

// TestLoadReportsChangedWords: Load overwrites the map and names exactly
// the words whose value changed, in ascending order.
func TestLoadReportsChangedWords(t *testing.T) {
	src := New(300) // 5 words, the last ragged
	src.SetRun(0, 300)
	dst := src.Clone()
	src.Clear(70)  // word 1
	src.Clear(299) // word 4
	var changed []int
	if err := dst.Load(src.Bytes(), func(w int) {
		if dst.Word(w) != src.Word(w) {
			t.Errorf("word %d reported before it was written", w)
		}
		changed = append(changed, w)
	}); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) {
		t.Fatal("Load did not reproduce the source map")
	}
	if len(changed) != 2 || changed[0] != 1 || changed[1] != 4 {
		t.Fatalf("changed words = %v, want [1 4]", changed)
	}
	if err := dst.Load(make([]byte, 3), nil); err == nil {
		t.Fatal("Load accepted a wrong-length payload")
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	f := func(raw []byte) bool {
		n := len(raw) * 8
		if n == 0 {
			return true
		}
		b, err := FromBytes(n, raw)
		if err != nil {
			return false
		}
		out := b.Bytes()
		if len(out) != len(raw) {
			return false
		}
		for i := range raw {
			if out[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrIsUnionProperty(t *testing.T) {
	f := func(x, y []byte) bool {
		n := 128
		bx, by := New(n), New(n)
		for i := 0; i < n; i++ {
			if len(x) > 0 && x[i%len(x)]&(1<<(i%8)) != 0 {
				bx.Set(i)
			}
			if len(y) > 0 && y[i%len(y)]&(1<<(i%8)) != 0 {
				by.Set(i)
			}
		}
		u := bx.Clone()
		u.Or(by)
		for i := 0; i < n; i++ {
			if u.Test(i) != (bx.Test(i) || by.Test(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunHelpers(t *testing.T) {
	b := New(50)
	b.SetRun(10, 5)
	if !b.TestRun(10, 5) {
		t.Error("TestRun(10,5) should be true")
	}
	if b.TestRun(9, 5) || b.TestRun(11, 5) {
		t.Error("TestRun should be false when run extends past set bits")
	}
	b.ClearRun(12, 3)
	if b.Count() != 2 {
		t.Errorf("after ClearRun, Count = %d, want 2", b.Count())
	}
}

// TestAnyInRunMatchesBitLoop: the word-wise AnyInRun agrees with a
// bit-by-bit loop on every run of a 200-bit map (four words, the last
// one partial) — runs inside one word, runs crossing one or two word
// boundaries, and runs ending at the map's last bit — over sparse maps
// that leave most runs empty.
func TestAnyInRunMatchesBitLoop(t *testing.T) {
	const n = 200
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		b := New(n)
		for k := r.Intn(4); k > 0; k-- {
			b.Set(r.Intn(n))
		}
		for i := 0; i < n; i++ {
			for l := 0; i+l <= n; l++ {
				want := false
				for k := i; k < i+l; k++ {
					want = want || b.Test(k)
				}
				if got := b.AnyInRun(i, l); got != want {
					t.Fatalf("%v: AnyInRun(%d, %d) = %v, want %v", b, i, l, got, want)
				}
			}
		}
	}
}

func TestAnyInRunOutOfRangePanics(t *testing.T) {
	b := New(100)
	for _, run := range [][2]int{{-1, 2}, {99, 2}, {100, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AnyInRun(%d, %d) did not panic", run[0], run[1])
				}
			}()
			b.AnyInRun(run[0], run[1])
		}()
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(130), New(130)
	a.SetRun(60, 10)
	b.Set(129)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatalf("CopyFrom: %v, want %v", b, a)
	}
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom across sizes did not panic")
		}
	}()
	b.CopyFrom(New(64))
}

func TestStringForms(t *testing.T) {
	b := New(8)
	b.Set(1)
	if got := b.String(); got != "01000000" {
		t.Errorf("String() = %q", got)
	}
	big := New(1024)
	big.Set(3)
	if got := big.String(); got != "Bitmap(1024 bits, 1 set)" {
		t.Errorf("big String() = %q", got)
	}
}

func TestOrBytes(t *testing.T) {
	a := New(200)
	a.SetRun(3, 5)
	b := New(200)
	b.SetRun(100, 20)
	merged := a.Clone()
	if err := merged.OrBytes(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	want := a.Clone()
	want.Or(b)
	if !merged.Equal(want) {
		t.Fatalf("OrBytes = %s, want %s", merged, want)
	}
	if err := merged.OrBytes(make([]byte, 3)); err == nil {
		t.Fatal("OrBytes accepted a wrong-length payload")
	}
}

// The per-layer benchmarks of the bitmap codec and the dirty-word
// journal, over a full slot map (layout.SlotCount bits, 896 words). Each
// reports ns/word, the unit the delta gather's merge work scales with.

func fullSlotMap() *Bitmap {
	b := New(layout.SlotCount)
	b.SetRun(0, layout.SlotCount)
	return b
}

func reportPerWord(b *testing.B, wordsPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*wordsPerOp), "ns/word")
}

var sinkBytes []byte

func BenchmarkBytes(b *testing.B) {
	m := fullSlotMap()
	for b.Loop() {
		sinkBytes = m.Bytes()
	}
	reportPerWord(b, m.Words())
}

func BenchmarkFromBytes(b *testing.B) {
	data := fullSlotMap().Bytes()
	for b.Loop() {
		if _, err := FromBytes(layout.SlotCount, data); err != nil {
			b.Fatal(err)
		}
	}
	reportPerWord(b, layout.SlotCount/wordBits)
}

func BenchmarkOrBytes(b *testing.B) {
	data := fullSlotMap().Bytes()
	dst := New(layout.SlotCount)
	for b.Loop() {
		if err := dst.OrBytes(data); err != nil {
			b.Fatal(err)
		}
	}
	reportPerWord(b, dst.Words())
}

// TestWordWiseSettersMatchPerBit: SetRun and SetEvery write whole words
// under masks; on a map whose length is not a multiple of 64 they must
// set exactly the bits the one-bit-at-a-time loops set, on top of what
// the map already holds, and never a bit past its length.
func TestWordWiseSettersMatchPerBit(t *testing.T) {
	const n = 200
	base := New(n)
	for i := 0; i < n; i += 7 {
		base.Set(i)
	}
	for i := 0; i < n; i++ {
		for k := 0; i+k <= n; k++ {
			got, want := base.Clone(), base.Clone()
			got.SetRun(i, k)
			for j := i; j < i+k; j++ {
				want.Set(j)
			}
			if !got.Equal(want) {
				t.Fatalf("SetRun(%d, %d) = %v, want %v", i, k, got, want)
			}
		}
	}
	for stride := 1; stride <= n+1; stride++ {
		for first := 0; first <= n; first++ {
			got, want := base.Clone(), base.Clone()
			got.SetEvery(first, stride)
			for j := first; j < n; j += stride {
				want.Set(j)
			}
			if !got.Equal(want) {
				t.Fatalf("SetEvery(%d, %d) = %v, want %v", first, stride, got, want)
			}
		}
	}
}
