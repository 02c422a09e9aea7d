package madeleine

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/bip"
	"repro/internal/cost"
	"repro/internal/simtime"
)

func TestBufferRoundTrip(t *testing.T) {
	b := NewBuffer()
	b.PackU32(42).PackU64(1 << 40).PackString("pm2").PackBytes([]byte{9, 8, 7})
	r := FromBytes(b.Bytes())
	if got := r.U32(); got != 42 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.String(); got != "pm2" {
		t.Fatalf("String = %q", got)
	}
	sec := r.BytesSection()
	if len(sec) != 3 || sec[0] != 9 {
		t.Fatalf("BytesSection = %v", sec)
	}
	if r.Remaining() != 0 || r.Err() != nil {
		t.Fatalf("leftover %d, err %v", r.Remaining(), r.Err())
	}
}

// TestPackBytesAppendMatchesPackBytes: a section appended in place is
// byte-identical on the wire to the same payload packed by copy, also
// behind a borrowed section.
func TestPackBytesAppendMatchesPackBytes(t *testing.T) {
	payload := []byte("iso-address slot map")
	borrowed := []byte{1, 2, 3}
	want := NewBuffer()
	want.PackU32(7).PackBytesRef(borrowed).PackBytes(payload).PackU32(9)
	got := NewBuffer()
	got.PackU32(7).PackBytesRef(borrowed).PackBytesAppend(func(dst []byte) []byte {
		return append(dst, payload...)
	}).PackU32(9)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("PackBytesAppend wire %v, PackBytes wire %v", got.Bytes(), want.Bytes())
	}
	empty := NewBuffer().PackBytesAppend(func(dst []byte) []byte { return dst })
	if r := FromBytes(empty.Bytes()); len(r.BytesSection()) != 0 || r.Err() != nil || r.Remaining() != 0 {
		t.Fatal("empty appended section did not round-trip")
	}
}

// TestCopyBytesOwnsItsResult: CopyBytes gathers inline words and
// borrowed sections into the wire layout Bytes would produce, but into a
// slice of its own. Reusing the pooled buffer, or changing the borrowed
// memory, after Put leaves the copy as it was, and the buffer keeps its
// pooled backing array instead of a flattened one.
func TestCopyBytesOwnsItsResult(t *testing.T) {
	pool := NewPool()
	buf := pool.Get()
	page := []byte("borrowed page")
	frags := [][]byte{[]byte("frag-one "), []byte("frag-two")}
	buf.PackU32(7).PackBytesRef(page).PackString("inline").PackBytesVec(frags).PackU64(9)
	inline := buf.InlineLen()

	want := NewBuffer()
	want.PackU32(7).PackBytes(page).PackString("inline").PackBytes([]byte("frag-one frag-two")).PackU64(9)
	got := buf.CopyBytes()
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("CopyBytes = %q, want %q", got, want.Bytes())
	}
	if buf.InlineLen() != inline || buf.Len() != len(got) {
		t.Fatalf("CopyBytes flattened the buffer: inline %d→%d", inline, buf.InlineLen())
	}
	kept := append([]byte(nil), got...)

	pool.Put(buf)
	again := pool.Get()
	if again != buf {
		t.Fatal("the pool did not hand the buffer back")
	}
	again.PackBytes(bytes.Repeat([]byte{0xEE}, len(got)))
	copy(page, "overwritten!!")
	copy(frags[0], "XXXXXXXXX")
	if !bytes.Equal(got, kept) {
		t.Fatalf("the copy changed after Put: %q, want %q", got, kept)
	}
}

func TestBufferUnderflowIsSticky(t *testing.T) {
	r := FromBytes([]byte{1, 2})
	if got := r.U32(); got != 0 {
		t.Fatalf("underflow U32 = %d", got)
	}
	if r.Err() != ErrUnderflow {
		t.Fatalf("Err = %v", r.Err())
	}
	// Later reads keep failing and return zero values.
	if r.U64() != 0 || r.String() != "" || r.BytesSection() != nil {
		t.Fatal("poisoned buffer returned non-zero values")
	}
}

func TestBufferTruncatedSection(t *testing.T) {
	b := NewBuffer()
	b.PackU32(100) // claims a 100-byte section that isn't there
	r := FromBytes(b.Bytes())
	if r.BytesSection() != nil || r.Err() == nil {
		t.Fatal("truncated section must error")
	}
}

func TestBufferPropertyU32(t *testing.T) {
	f := func(vals []uint32) bool {
		b := NewBuffer()
		for _, v := range vals {
			b.PackU32(v)
		}
		r := FromBytes(b.Bytes())
		for _, v := range vals {
			if r.U32() != v {
				return false
			}
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type pair struct {
	eng *simtime.Engine
	eps [2]*Endpoint
	act [2]*simtime.Actor
}

func newPair(t testing.TB) *pair {
	t.Helper()
	p := &pair{eng: simtime.NewEngine()}
	nw := bip.NewNetwork(p.eng, cost.Default(), 2)
	for i := 0; i < 2; i++ {
		p.act[i] = simtime.NewActor(p.eng, "node")
		p.eps[i] = Attach(nw, i, p.act[i])
	}
	return p
}

func TestOnewayMessage(t *testing.T) {
	p := newPair(t)
	var got []uint32
	var from int
	p.eps[1].Handle(5, func(src int, msg *Buffer) {
		from = src
		got = append(got, msg.U32(), msg.U32())
	})
	p.act[0].Post(0, func() {
		p.eps[0].Send(1, 5, func(b *Buffer) { b.PackU32(11).PackU32(22) })
	})
	p.eng.Run(0)
	if from != 0 || len(got) != 2 || got[0] != 11 || got[1] != 22 {
		t.Fatalf("from=%d got=%v", from, got)
	}
}

func TestCallReply(t *testing.T) {
	p := newPair(t)
	p.eps[1].HandleCall(3, func(src int, req *Call) {
		x := req.Msg.U32()
		req.Reply(func(b *Buffer) { b.PackU32(x * 2) })
	})
	var answer uint32
	var doneAt simtime.Time
	p.act[0].Post(0, func() {
		p.eps[0].Call(1, 3, func(b *Buffer) { b.PackU32(21) }, func(b *Buffer) {
			answer = b.U32()
			doneAt = p.act[0].Now()
		})
	})
	p.eng.Run(0)
	if answer != 42 {
		t.Fatalf("answer = %d", answer)
	}
	if doneAt <= 0 {
		t.Fatal("reply must consume virtual time")
	}
}

func TestDeferredReply(t *testing.T) {
	p := newPair(t)
	// The callee holds the Call and replies after some local work.
	p.eps[1].HandleCall(1, func(src int, req *Call) {
		r := req
		p.act[1].PostAfter(50*simtime.Microsecond, func() {
			r.Reply(func(b *Buffer) { b.PackString("late") })
		})
	})
	var got string
	p.act[0].Post(0, func() {
		p.eps[0].Call(1, 1, nil, func(b *Buffer) { got = b.String() })
	})
	p.eng.Run(0)
	if got != "late" {
		t.Fatalf("got %q", got)
	}
}

func TestConcurrentCallsCorrelate(t *testing.T) {
	p := newPair(t)
	p.eps[1].HandleCall(2, func(src int, req *Call) {
		v := req.Msg.U32()
		req.Reply(func(b *Buffer) { b.PackU32(v + 100) })
	})
	results := map[uint32]uint32{}
	p.act[0].Post(0, func() {
		for i := uint32(0); i < 5; i++ {
			i := i
			p.eps[0].Call(1, 2, func(b *Buffer) { b.PackU32(i) }, func(b *Buffer) {
				results[i] = b.U32()
			})
		}
	})
	p.eng.Run(0)
	if len(results) != 5 {
		t.Fatalf("results = %v", results)
	}
	for i := uint32(0); i < 5; i++ {
		if results[i] != i+100 {
			t.Fatalf("call %d got %d", i, results[i])
		}
	}
}

func TestDoubleReplyPanics(t *testing.T) {
	p := newPair(t)
	p.eps[1].HandleCall(1, func(src int, req *Call) {
		req.Reply(nil)
		defer func() {
			if recover() == nil {
				t.Error("double reply should panic")
			}
		}()
		req.Reply(nil)
	})
	p.act[0].Post(0, func() { p.eps[0].Call(1, 1, nil, nil) })
	p.eng.Run(0)
}

func TestDuplicateHandlerPanics(t *testing.T) {
	p := newPair(t)
	p.eps[0].Handle(1, func(int, *Buffer) {})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.eps[0].Handle(1, func(int, *Buffer) {})
}

// TestSendBodyWireEquivalence pins the golden-neutrality property of the
// pre-built-body send: SendBody must put the exact bytes of
// Send+PackBytes on the wire — same envelope, same length prefix, same
// payload, same virtual arrival time — whatever mix of copied and
// borrowed sections the body holds. Only then can the migration path
// switch to it without disturbing a single golden trace.
func TestSendBodyWireEquivalence(t *testing.T) {
	deliver := func(send func(ep *Endpoint)) (payload []byte, at simtime.Time) {
		p := newPair(t)
		p.eps[1].Handle(7, func(src int, msg *Buffer) {
			payload = append([]byte(nil), msg.data...)
			at = p.act[1].Now()
		})
		p.act[0].Post(0, func() { send(p.eps[0]) })
		p.eng.Run(0)
		return payload, at
	}

	span := []byte{1, 2, 3, 4, 5, 6, 7}
	legacy, legacyAt := deliver(func(ep *Endpoint) {
		inner := NewBuffer()
		inner.PackU32(99).PackBytes(span).PackU64(1 << 33)
		ep.Send(1, 7, func(b *Buffer) { b.PackBytes(inner.Bytes()) })
	})
	body, bodyAt := deliver(func(ep *Endpoint) {
		inner := NewBuffer()
		inner.PackU32(99).PackBytesVec([][]byte{span[:3], span[3:]}).PackU64(1 << 33)
		ep.SendBody(1, 7, inner)
	})
	if !bytes.Equal(legacy, body) {
		t.Fatalf("wire bytes differ:\nlegacy %v\nbody   %v", legacy, body)
	}
	if legacyAt != bodyAt {
		t.Fatalf("arrival differs: legacy %v, body %v", legacyAt, bodyAt)
	}
}

// TestSendBodyZeroCopyCheaper: the zero-copy variant ships the same
// bytes but charges the CPUs only for the inline header words, so with a
// large borrowed payload the message must complete strictly earlier.
func TestSendBodyZeroCopyCheaper(t *testing.T) {
	run := func(zero bool) (n int, at simtime.Time) {
		p := newPair(t)
		payload := make([]byte, 32<<10)
		p.eps[1].Handle(7, func(src int, msg *Buffer) {
			body := FromBytes(msg.BytesSection())
			n = len(body.BytesSection())
			at = p.act[1].Now()
		})
		p.act[0].Post(0, func() {
			body := NewBuffer()
			body.PackBytesRef(payload)
			if zero {
				p.eps[0].SendBodyZeroCopy(1, 7, body)
			} else {
				p.eps[0].SendBody(1, 7, body)
			}
		})
		p.eng.Run(0)
		return n, at
	}
	nCopy, atCopy := run(false)
	nZero, atZero := run(true)
	if nCopy != 32<<10 || nZero != 32<<10 {
		t.Fatalf("payload sizes: copy %d, zero %d", nCopy, nZero)
	}
	if atZero >= atCopy {
		t.Fatalf("zero-copy delivery at %v not before copying delivery at %v", atZero, atCopy)
	}
}

// TestPoolReuse: a pooled buffer comes back reset and is handed out
// again; the counters see the reuse. A nil pool degrades to allocation.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	a := p.Get()
	a.PackU32(7).PackBytesRef([]byte{1, 2})
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Fatal("pool did not reuse the returned buffer")
	}
	if b.Len() != 0 || b.InlineLen() != 0 || b.Err() != nil || b.Remaining() != 0 {
		t.Fatalf("reused buffer not reset: len=%d err=%v", b.Len(), b.Err())
	}
	gets, hits := p.Stats()
	if gets != 2 || hits != 1 {
		t.Fatalf("stats = %d gets / %d hits, want 2/1", gets, hits)
	}
	var nilPool *Pool
	if nilPool.Get() == nil {
		t.Fatal("nil pool must allocate")
	}
	nilPool.Put(NewBuffer()) // must not panic
}
