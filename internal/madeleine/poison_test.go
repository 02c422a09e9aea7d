//go:build poison

package madeleine

import (
	"strings"
	"testing"
)

// mustPanicWith runs fn on actor a of p and fails unless it panics with
// a message containing want.
func mustPanicWith(t *testing.T, p *pair, a int, want string, fn func()) {
	t.Helper()
	var got any
	p.act[a].Post(p.eng.Now(), func() {
		defer func() { got = recover() }()
		fn()
	})
	p.eng.Run(0)
	if s, _ := got.(string); !strings.Contains(s, want) {
		t.Fatalf("panic %v, want one mentioning %q", got, want)
	}
}

// TestPoisonCatchesRetainedMessages: in a poison build a handler that
// keeps any part of a message past its release fails loudly — a stale
// Call cannot reply, a stale Buffer cannot unpack, and a kept slice of
// the body reads the poison pattern instead of another message.
func TestPoisonCatchesRetainedMessages(t *testing.T) {
	p := newPair(t)
	var call *Call
	var msg *Buffer
	var section []byte
	p.eps[1].HandleCall(1, func(_ int, req *Call) {
		call = req
		req.Reply(nil)
	})
	p.eps[1].Handle(2, func(_ int, m *Buffer) {
		msg = m
		section = m.BytesSection()
	})
	p.act[0].Post(0, func() {
		p.eps[0].Call(1, 1, nil, nil)
		p.eps[0].Send(1, 2, func(b *Buffer) { b.PackString("still here") })
	})
	p.eng.Run(0)

	mustPanicWith(t, p, 1, "double reply", func() { call.Reply(nil) })
	mustPanicWith(t, p, 1, "released message", func() { msg.U32() })
	if len(section) == 0 {
		t.Fatal("handler saw no section")
	}
	for i, c := range section {
		if c != 0xA5 {
			t.Fatalf("byte %d of a released body reads %#x, want the poison byte", i, c)
		}
	}
}
