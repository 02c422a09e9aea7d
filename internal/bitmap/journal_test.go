package bitmap

import (
	"slices"
	"testing"
)

func TestWordAccessors(t *testing.T) {
	b := New(130) // 3 words, 2 valid bits in the last
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Word(0) != 1 || b.Word(1) != 1 || b.Word(2) != 2 {
		t.Fatalf("words = %x %x %x", b.Word(0), b.Word(1), b.Word(2))
	}
	if b.Words() != 3 {
		t.Fatalf("Words() = %d", b.Words())
	}
	b.SetWord(1, 0xff00)
	if b.Word(1) != 0xff00 {
		t.Fatalf("word 1 = %x after SetWord", b.Word(1))
	}
	// Tail bits beyond the map length are masked off.
	b.SetWord(2, ^uint64(0))
	if b.Word(2) != 3 {
		t.Fatalf("tail word = %x, want masked 3", b.Word(2))
	}
	if b.Count() != 1+8+2 {
		t.Fatalf("count = %d", b.Count())
	}
}

// TestWordDeltaRoundTrip: replaying the dirty words of a mutated bitmap
// onto a stale copy reconstructs the source exactly — the delta-apply
// step of the gather.
func TestWordDeltaRoundTrip(t *testing.T) {
	src := New(1024)
	for i := 0; i < 1024; i += 3 {
		src.Set(i)
	}
	stale := src.Clone()
	j := NewJournal(64)
	base := j.Version()

	mutate := func(start, n int, set bool) {
		if set {
			src.SetRun(start, n)
		} else {
			src.ClearRun(start, n)
		}
		j.NoteBits(start, n)
	}
	mutate(10, 5, false)
	mutate(100, 130, true) // spans three words
	mutate(1000, 20, false)

	words, ok := j.AppendWordsSince(nil, base)
	if !ok {
		t.Fatal("journal truncated unexpectedly")
	}
	for _, w := range words {
		stale.SetWord(w, src.Word(w))
	}
	if !stale.Equal(src) {
		t.Fatal("delta replay did not reconstruct the source bitmap")
	}
}

func TestJournalVersioningAndOrder(t *testing.T) {
	j := NewJournal(32)
	if j.Version() != 0 {
		t.Fatalf("fresh journal version = %d", j.Version())
	}
	if words, ok := j.AppendWordsSince(nil, 0); !ok || len(words) != 0 {
		t.Fatalf("pristine journal: words=%v ok=%v", words, ok)
	}
	j.NoteBits(200, 1) // word 3
	j.NoteBits(0, 1)   // word 0
	j.NoteBits(70, 1)  // word 1
	if j.Version() != 3 {
		t.Fatalf("version = %d after 3 mutations", j.Version())
	}
	words, ok := j.AppendWordsSince(nil, 0)
	if !ok || len(words) != 3 || words[0] != 0 || words[1] != 1 || words[2] != 3 {
		t.Fatalf("AppendWordsSince(nil, 0) = %v ok=%v, want sorted [0 1 3]", words, ok)
	}
	// Mid-stream query sees only the later mutations.
	words, ok = j.AppendWordsSince(nil, 1)
	if !ok || len(words) != 2 || words[0] != 0 || words[1] != 1 {
		t.Fatalf("AppendWordsSince(nil, 1) = %v ok=%v", words, ok)
	}
	// A re-dirtied word reports its latest version.
	j.NoteBits(200, 1)
	words, ok = j.AppendWordsSince(nil, 3)
	if !ok || len(words) != 1 || words[0] != 3 {
		t.Fatalf("AppendWordsSince(nil, 3) = %v ok=%v", words, ok)
	}
	// The future is unanswerable.
	if _, ok := j.AppendWordsSince(nil, j.Version()+1); ok {
		t.Fatal("journal answered a future version")
	}
	// Zero-length mutations change nothing.
	v := j.Version()
	j.NoteBits(5, 0)
	if j.Version() != v {
		t.Fatal("empty NoteBits bumped the version")
	}
}

func TestJournalTruncation(t *testing.T) {
	j := NewJournal(4)
	base := j.Version()
	for i := 0; i < 5; i++ {
		j.NoteBits(i*wordBits, 1) // 5 distinct words overflow cap 4
	}
	if _, ok := j.AppendWordsSince(nil, base); ok {
		t.Fatal("truncated journal still answered a pre-truncation version")
	}
	// After truncation the journal resyncs from the current version.
	now := j.Version()
	j.NoteBits(0, 1)
	words, ok := j.AppendWordsSince(nil, now)
	if !ok || len(words) != 1 || words[0] != 0 {
		t.Fatalf("post-truncation AppendWordsSince = %v ok=%v", words, ok)
	}
}

// refJournal is the reference model FuzzJournal checks Journal against:
// the same contract kept in the most direct form, a map from word index
// to the version that last dirtied it, sorted on every query.
type refJournal struct {
	version, floor uint64
	dirty          map[int]uint64
	cap            int
}

func (r *refJournal) noteBits(start, n int) {
	if n <= 0 {
		return
	}
	r.version++
	for w := start / wordBits; w <= (start+n-1)/wordBits; w++ {
		r.dirty[w] = r.version
	}
	if len(r.dirty) > r.cap {
		r.truncate()
	}
}

func (r *refJournal) truncate() {
	r.dirty = map[int]uint64{}
	r.floor = r.version
}

func (r *refJournal) wordsSince(since uint64) ([]int, bool) {
	if since < r.floor || since > r.version {
		return nil, false
	}
	var words []int
	for w, v := range r.dirty {
		if v > since {
			words = append(words, w)
		}
	}
	slices.Sort(words)
	return words, true
}

// FuzzJournal runs a fuzzer-chosen tape of NoteBits, Truncate,
// RestoreVersion and AppendWordsSince against refJournal, with a small
// capacity so mutations spanning several words overflow it midway. After
// every op the version and the answer to every query version (from 0 to
// one past the current version) must agree.
func FuzzJournal(f *testing.F) {
	f.Add(uint8(3), []byte{0, 10, 0, 200, 0, 0, 1, 5, 3, 0})
	f.Add(uint8(1), []byte{0, 0, 1, 255, 1, 2, 7, 0, 2, 0, 3})
	f.Add(uint8(7), []byte{0, 3, 10, 100, 0, 1, 200, 50, 2, 4, 0, 0, 5, 9})
	f.Fuzz(func(t *testing.T, capacity uint8, tape []byte) {
		capWords := 1 + int(capacity)%8
		j := NewJournal(capWords)
		ref := &refJournal{dirty: map[int]uint64{}, cap: capWords}
		next := func(i *int) int {
			if *i >= len(tape) {
				return 0
			}
			*i++
			return int(tape[*i-1])
		}
		for i := 0; i < len(tape); {
			switch op := next(&i) % 4; op {
			case 0:
				// A mutation of up to 255 bits (at most 5 words) starting
				// anywhere in the first 16 words.
				start := (next(&i)<<8 | next(&i)) % (16 * wordBits)
				n := next(&i)
				j.NoteBits(start, n)
				ref.noteBits(start, n)
			case 1:
				j.Truncate()
				ref.truncate()
			case 2:
				v := uint64(next(&i))
				j.RestoreVersion(v)
				ref.version = v
				ref.truncate()
			case 3:
				// A query op: the checks below run after every op.
			}
			if j.Version() != ref.version {
				t.Fatalf("op %d: version %d, reference %d", i, j.Version(), ref.version)
			}
			for since := uint64(0); since <= ref.version+1; since++ {
				got, ok := j.AppendWordsSince(nil, since)
				want, wantOK := ref.wordsSince(since)
				if ok != wantOK || !slices.Equal(got, want) {
					t.Fatalf("op %d: AppendWordsSince(nil, %d) = %v %v, reference %v %v", i, since, got, ok, want, wantOK)
				}
				// Appending into a non-empty dst keeps its prefix.
				prefix := []int{-1, -2}
				got, ok = j.AppendWordsSince(prefix, since)
				if ok != wantOK || !slices.Equal(got[:len(prefix)], []int{-1, -2}) || !slices.Equal(got[len(prefix):], want) {
					t.Fatalf("op %d: AppendWordsSince(%v, %d) = %v %v, reference %v %v", i, prefix, since, got, ok, want, wantOK)
				}
			}
		}
	})
}

func BenchmarkJournalNoteBits(b *testing.B) {
	j := NewJournal(64)
	for i := 0; b.Loop(); i++ {
		// One-slot mutations cycling through 32 words: the journal stays
		// below capacity, as between two contacts of a warm gather.
		j.NoteBits((i%32)*wordBits+i%wordBits, 1)
	}
	reportPerWord(b, 1)
}

func BenchmarkJournalWordsSince(b *testing.B) {
	j := NewJournal(64)
	for w := 0; w < 64; w++ {
		j.NoteBits(w*wordBits, 1)
	}
	// The delta server's form: appending into a reused scratch slice.
	var words []int
	for b.Loop() {
		var ok bool
		if words, ok = j.AppendWordsSince(words[:0], 0); !ok || len(words) != 64 {
			b.Fatalf("AppendWordsSince = %d words, ok=%v", len(words), ok)
		}
	}
	reportPerWord(b, 64)
}
