package madeleine

import (
	"testing"

	"repro/internal/bip"
	"repro/internal/simtime"
)

// msgBench drives the three message shapes of an endpoint pair — a
// one-way send, a call answered in place and a call answered later —
// through callbacks bound once, so a round allocates only what the
// message path itself does. The endpoints share one outgoing pool, as a
// cluster's do.
type msgBench struct {
	p       *pair
	sum     uint32
	held    *Call
	oneway  func()
	inPlace func()
	later   func()
	reply   func()
	done    func(*Buffer)
	build   func(*Buffer)
}

func newMsgBench(tb testing.TB) *msgBench {
	m := &msgBench{p: newPair(tb)}
	eps := m.p.eps
	pool := NewPool()
	eps[0].SetPool(pool)
	eps[1].SetPool(pool)
	eps[1].Handle(1, func(_ int, msg *Buffer) { m.sum += msg.U32() })
	eps[1].HandleCall(2, func(_ int, req *Call) {
		x := req.Msg.U32()
		req.Reply(func(b *Buffer) { b.PackU32(x + 1) })
	})
	eps[1].HandleCall(3, func(_ int, req *Call) {
		m.held = req
		m.p.act[1].PostAfter(50*simtime.Microsecond, m.reply)
	})
	m.build = func(b *Buffer) { b.PackU32(41) }
	m.done = func(b *Buffer) { m.sum += b.U32() }
	m.reply = func() {
		req := m.held
		m.held = nil
		req.Reply(func(b *Buffer) { b.PackU32(req.Msg.U32() + 2) })
	}
	m.oneway = func() { eps[0].Send(1, 1, m.build) }
	m.inPlace = func() { eps[0].Call(1, 2, m.build, m.done) }
	m.later = func() { eps[0].Call(1, 3, m.build, m.done) }
	return m
}

// run sends one message of a shape and drains the engine.
func (m *msgBench) run(send func()) {
	m.p.act[0].Post(m.p.eng.Now(), send)
	m.p.eng.Run(0)
}

// TestEndpointMessageAllocations: once warm, a message allocates
// nothing on the host — its wire body and delivery record come from the
// network's free lists, its inbound Buffer and Call from the
// endpoint's, and its span list is endpoint scratch.
func TestEndpointMessageAllocations(t *testing.T) {
	if bip.Poison {
		t.Skip("a poison build retires released buffers and calls instead of reusing them")
	}
	m := newMsgBench(t)
	for _, c := range []struct {
		name string
		send func()
	}{
		{"one-way", m.oneway},
		{"call answered in place", m.inPlace},
		{"deferred reply", m.later},
	} {
		for i := 0; i < 200; i++ {
			m.run(c.send)
		}
		if avg := testing.AllocsPerRun(200, func() { m.run(c.send) }); avg != 0 {
			t.Errorf("%s: %.2f allocations per message, want 0", c.name, avg)
		}
	}
	// 200 warm-up rounds, then AllocsPerRun's 201, of each shape.
	if want := uint32(401*41 + 401*42 + 401*43); m.sum != want {
		t.Fatalf("handlers saw a checksum of %d, want %d", m.sum, want)
	}
}

// TestReplyAfterReleasePanics: a Call is released once answered, so a
// handler that keeps it and replies again fails instead of answering
// another request.
func TestReplyAfterReleasePanics(t *testing.T) {
	p := newPair(t)
	var kept *Call
	p.eps[1].HandleCall(1, func(_ int, req *Call) {
		kept = req
		req.Reply(nil)
	})
	p.act[0].Post(0, func() { p.eps[0].Call(1, 1, nil, nil) })
	p.eng.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("a reply on a released call must panic")
		}
	}()
	p.act[1].Post(p.eng.Now(), func() { kept.Reply(nil) })
	p.eng.Run(0)
}

// BenchmarkEndpointCall measures one warm request answered in place
// between two endpoints, reply included, in host ns and allocations.
func BenchmarkEndpointCall(b *testing.B) {
	m := newMsgBench(b)
	m.run(m.inPlace)
	b.ReportAllocs()
	for b.Loop() {
		m.run(m.inPlace)
	}
}
