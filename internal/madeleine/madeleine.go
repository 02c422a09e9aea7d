// Package madeleine reproduces the Madeleine communication layer used by
// PM2: an efficient, portable message-passing interface on top of the
// low-level BIP driver.
//
// It provides two things. Buffer is an incremental pack/unpack facility
// (Madeleine's pack/unpack calls) used to marshal thread resources, slot
// images and protocol records. Endpoint adds tagged dispatch and a
// request/reply (LRPC-style) discipline on top of bip.NIC, which the PM2
// runtime uses for migration, remote thread creation and the slot
// negotiation protocol.
package madeleine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bip"
	"repro/internal/simtime"
)

// ActorT is the node CPU actor type endpoints bind to.
type ActorT = simtime.Actor

// ErrUnderflow is reported by Buffer when unpacking past the end of a
// message.
var ErrUnderflow = errors.New("madeleine: unpack past end of message")

// Buffer packs and unpacks typed fields in little-endian order. Packing
// appends; unpacking consumes from the front. Unpack errors are sticky: the
// first failure poisons the buffer and zero values are returned thereafter.
//
// Besides the copying Pack* calls, a Buffer accepts *borrowed* sections
// (PackBytesRef, PackBytesVec): iovec-style spans that are recorded by
// reference and spliced into the byte stream only when the message is
// materialized — once, at Send/Call time, directly into the wire body. The
// caller must keep a borrowed span stable until the buffer is sent (or
// Bytes() is called); the wire format is identical to PackBytes.
type Buffer struct {
	data []byte
	off  int
	err  error
	// refs are the borrowed sections, each spliced after data[:at].
	// at values are non-decreasing; refLen caches their total size.
	refs   []bufRef
	refLen int
	// dead marks an inbound buffer its endpoint released, in a poison
	// build: unpacking from it panics.
	dead bool
}

type bufRef struct {
	at int
	b  []byte
}

// NewBuffer returns an empty pack buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// FromBytes returns an unpack buffer over data (not copied).
func FromBytes(data []byte) *Buffer { return &Buffer{data: data} }

// Bytes returns the packed message, materializing any borrowed sections
// into one contiguous slice (at most once: the refs are consumed).
func (b *Buffer) Bytes() []byte {
	b.flatten()
	return b.data
}

// flatten splices the borrowed sections into the inline stream.
func (b *Buffer) flatten() {
	if len(b.refs) == 0 {
		return
	}
	b.data, b.refs, b.refLen = b.CopyBytes(), b.refs[:0], 0
}

// CopyBytes returns the whole message, borrowed sections included, in
// one new slice the caller owns. Unlike Bytes it leaves the buffer as it
// is, so its backing array stays pooled and is copied from only once.
func (b *Buffer) CopyBytes() []byte {
	out := make([]byte, 0, b.Len())
	for _, seg := range b.appendSegments(nil) {
		out = append(out, seg...)
	}
	return out
}

// appendSegments appends the message to out as an ordered span list —
// the inline stream split around the borrowed sections — without
// materializing it.
func (b *Buffer) appendSegments(out [][]byte) [][]byte {
	prev := 0
	for _, r := range b.refs {
		if r.at > prev {
			out = append(out, b.data[prev:r.at])
			prev = r.at
		}
		out = append(out, r.b)
	}
	if prev < len(b.data) {
		out = append(out, b.data[prev:])
	}
	return out
}

// Len returns the total packed length in bytes, borrowed sections included.
func (b *Buffer) Len() int { return len(b.data) + b.refLen }

// InlineLen returns the bytes of the message that live in the inline
// stream — everything except the borrowed sections. This is the portion a
// scatter-gather NIC must still copy (the express header words and length
// prefixes); the borrowed payload is gathered by DMA.
func (b *Buffer) InlineLen() int { return len(b.data) }

// Remaining returns the number of bytes not yet unpacked.
func (b *Buffer) Remaining() int { return b.Len() - b.off }

// reset clears the buffer for reuse, keeping its backing storage.
func (b *Buffer) reset() {
	b.data = b.data[:0]
	b.off = 0
	b.err = nil
	b.refs = b.refs[:0]
	b.refLen = 0
}

// Err returns the sticky unpack error, if any.
func (b *Buffer) Err() error { return b.err }

// PackU32 appends a 32-bit word.
func (b *Buffer) PackU32(v uint32) *Buffer {
	b.data = binary.LittleEndian.AppendUint32(b.data, v)
	return b
}

// PackU64 appends a 64-bit word.
func (b *Buffer) PackU64(v uint64) *Buffer {
	b.data = binary.LittleEndian.AppendUint64(b.data, v)
	return b
}

// PackBytes appends a length-prefixed byte section.
func (b *Buffer) PackBytes(p []byte) *Buffer {
	b.PackU32(uint32(len(p)))
	b.data = append(b.data, p...)
	return b
}

// PackBytesAppend appends a length-prefixed byte section whose payload
// fill appends straight onto the message — a serializer of the
// AppendX(dst []byte) []byte form — so the payload is never staged in an
// intermediate slice. The wire format is identical to PackBytes.
func (b *Buffer) PackBytesAppend(fill func(dst []byte) []byte) *Buffer {
	at := len(b.data)
	b.PackU32(0)
	b.data = fill(b.data)
	binary.LittleEndian.PutUint32(b.data[at:], uint32(len(b.data)-at-4))
	return b
}

// PackString appends a length-prefixed string.
func (b *Buffer) PackString(s string) *Buffer { return b.PackBytes([]byte(s)) }

// PackBytesRef appends a length-prefixed byte section *by reference*: only
// the 4-byte prefix is written now; p itself is spliced in when the buffer
// is materialized (Send/Call/Bytes). p must stay unchanged until then.
func (b *Buffer) PackBytesRef(p []byte) *Buffer {
	b.PackU32(uint32(len(p)))
	b.appendRef(p)
	return b
}

// PackBytesVec appends ONE length-prefixed byte section whose payload is
// the concatenation of frags, each borrowed by reference — the natural fit
// for data gathered from paged memory (vmem.Space.ReadAliases), where a
// contiguous span surfaces as per-page fragments.
func (b *Buffer) PackBytesVec(frags [][]byte) *Buffer {
	total := 0
	for _, f := range frags {
		total += len(f)
	}
	b.PackU32(uint32(total))
	for _, f := range frags {
		b.appendRef(f)
	}
	return b
}

func (b *Buffer) appendRef(p []byte) {
	if len(p) == 0 {
		return
	}
	b.refs = append(b.refs, bufRef{at: len(b.data), b: p})
	b.refLen += len(p)
}

func (b *Buffer) fail() {
	if b.err == nil {
		b.err = ErrUnderflow
	}
}

// checkLive panics on an inbound buffer its endpoint has released, in a
// poison build; otherwise it compiles to nothing.
func (b *Buffer) checkLive() {
	if bip.Poison && b.dead {
		panic("madeleine: unpack from a released message")
	}
}

// U32 consumes a 32-bit word.
func (b *Buffer) U32() uint32 {
	b.checkLive()
	b.flatten()
	if b.err != nil || b.off+4 > len(b.data) {
		b.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(b.data[b.off:])
	b.off += 4
	return v
}

// U64 consumes a 64-bit word.
func (b *Buffer) U64() uint64 {
	b.checkLive()
	b.flatten()
	if b.err != nil || b.off+8 > len(b.data) {
		b.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(b.data[b.off:])
	b.off += 8
	return v
}

// BytesSection consumes a length-prefixed byte section. The returned slice
// aliases the message.
func (b *Buffer) BytesSection() []byte {
	n := b.U32() // flattens

	if b.err != nil || b.off+int(n) > len(b.data) {
		b.fail()
		return nil
	}
	p := b.data[b.off : b.off+int(n)]
	b.off += int(n)
	return p
}

// String consumes a length-prefixed string.
func (b *Buffer) String() string { return string(b.BytesSection()) }

// Pool recycles pack Buffers so the hot messaging paths (migration
// packing, envelope assembly) stop allocating a fresh Buffer — and a fresh
// backing array — per message. A nil *Pool is valid and degrades to plain
// allocation, so callers never need to branch. It holds *outgoing*
// buffers only: inbound buffers live on their endpoint's own free list,
// because the endpoint, not the handler, decides when one is released
// (see Endpoint).
type Pool struct {
	mu   sync.Mutex
	free []*Buffer
	gets uint64
	hits uint64
}

// NewPool returns an empty buffer pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a reset buffer, reusing a pooled one when available.
func (p *Pool) Get() *Buffer {
	if p == nil {
		return NewBuffer()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gets++
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		p.hits++
		return b
	}
	return NewBuffer()
}

// Put returns a buffer to the pool. The buffer must not be used afterwards.
func (p *Pool) Put(b *Buffer) {
	if p == nil || b == nil {
		return
	}
	b.reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, b)
}

// Stats reports how many Gets were served and how many of them reused a
// pooled buffer — the deterministic signal the allocation-guard tests pin.
func (p *Pool) Stats() (gets, hits uint64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits
}

// Envelope kinds carried in the first word of every endpoint message.
const (
	kindOneway uint32 = 0
	kindCall   uint32 = 1
	kindReply  uint32 = 2
	// kindCallDL is a request carrying a virtual-time deadline: the
	// receiver discards it unanswered when it arrives past the
	// deadline (a partition-delayed request must not execute after its
	// initiator has timed out, retried and moved on). Wire layout is
	// kindCall's plus one u64 deadline word; CallDL only ever emits it
	// for a finite deadline, so plain Call traffic is byte-identical
	// with deadlines disabled.
	kindCallDL uint32 = 3
)

// Handler processes an inbound one-way message.
type Handler func(src int, msg *Buffer)

// CallHandler processes an inbound request. It may reply immediately or
// retain the Call and reply later, once local events complete.
type CallHandler func(src int, req *Call)

// Waiter receives the reply to request id, the id CallDL returned.
type Waiter interface{ Reply(id uint32, msg *Buffer) }

// replyFunc adapts a plain reply continuation to Waiter.
type replyFunc func(*Buffer)

// Reply runs f on the reply; a nil f drops it.
func (f replyFunc) Reply(_ uint32, msg *Buffer) {
	if f != nil {
		f(msg)
	}
}

// Call is a pending inbound request awaiting a reply.
type Call struct {
	ep    *Endpoint
	src   int
	reqID uint32
	// Msg is the request payload.
	Msg  *Buffer
	done bool
	// serving is set while the call handler runs: a reply sent then
	// leaves the release to dispatch, once the handler returns.
	serving bool
}

// Src returns the requesting node.
func (c *Call) Src() int { return c.src }

// Reply sends the response payload back to the requester. It must be called
// exactly once, from the receiving node's actor. Replying releases the
// call and its request: neither may be used afterwards.
func (c *Call) Reply(build func(*Buffer)) {
	if c.done {
		panic("madeleine: double reply")
	}
	c.done = true
	ep := c.ep
	out := ep.pool.Get()
	out.PackU32(kindReply)
	out.PackU32(c.reqID)
	if build != nil {
		build(out)
	}
	ep.nic.Send(c.src, 0, out.Bytes())
	ep.pool.Put(out)
	if !c.serving {
		ep.releaseCall(c)
	}
}

// Endpoint is a node's Madeleine port: tagged one-way messages plus a
// request/reply discipline. All callbacks run on the node's CPU actor, in
// virtual time.
//
// Inbound messages reuse their host memory. A message — its wire body
// and the Buffer over it — belongs to its handler until the handler
// returns, and is then released: the body goes back to the network and
// the Buffer to the endpoint. A request is released with its Call: when
// the handler returns if it replied in place, otherwise when its Reply
// is sent. A handler must therefore copy whatever it keeps of a message
// (BytesSection aliases the body), and drop its Call once it replied.
// The free lists need no lock: the kernel runs every event on one
// goroutine.
type Endpoint struct {
	nic      *bip.NIC
	actor    *ActorT
	handlers map[uint32]Handler
	calls    map[uint32]CallHandler
	// pending maps each request whose reply has not arrived to its
	// waiter, which handles the reply even once it stopped waiting.
	pending map[uint32]Waiter
	nextReq uint32
	// pool recycles outgoing buffers; nil means plain allocation.
	pool *Pool
	// freeBufs and freeCalls are the released inbound Buffers and Calls.
	freeBufs  []*Buffer
	freeCalls []*Call
}

// spanScratch is how many spans sendBody lists on the stack; a longer
// list, such as a migration's page fragments, is allocated for that
// send alone. An endpoint-held scratch would keep every node's longest
// list alive.
const spanScratch = 8

// Attach creates node id's endpoint on the network, bound to its CPU actor.
func Attach(nw *bip.Network, id int, actor *ActorT) *Endpoint {
	ep := &Endpoint{
		actor:    actor,
		handlers: make(map[uint32]Handler),
		calls:    make(map[uint32]CallHandler),
		pending:  make(map[uint32]Waiter),
	}
	ep.nic = nw.Attach(id, actor, ep.dispatch)
	return ep
}

// ID returns the node id of the endpoint.
func (ep *Endpoint) ID() int { return ep.nic.ID() }

// NIC exposes the endpoint's network interface, for the checkpoint
// layer's counter capture.
func (ep *Endpoint) NIC() *bip.NIC { return ep.nic }

// SetPool installs a buffer pool for this endpoint's outgoing messages.
// Endpoints of one cluster share the cluster's pool so reuse statistics
// stay deterministic per run.
func (ep *Endpoint) SetPool(p *Pool) { ep.pool = p }

// Handle registers the handler for one-way messages on channel ch.
func (ep *Endpoint) Handle(ch uint32, h Handler) {
	if _, dup := ep.handlers[ch]; dup {
		panic(fmt.Sprintf("madeleine: duplicate handler for channel %d", ch))
	}
	ep.handlers[ch] = h
}

// HandleCall registers the request handler for channel ch.
func (ep *Endpoint) HandleCall(ch uint32, h CallHandler) {
	if _, dup := ep.calls[ch]; dup {
		panic(fmt.Sprintf("madeleine: duplicate call handler for channel %d", ch))
	}
	ep.calls[ch] = h
}

// Send transmits a one-way message on channel ch to node dst. build packs
// the payload (may be nil for empty messages).
func (ep *Endpoint) Send(dst int, ch uint32, build func(*Buffer)) {
	out := ep.pool.Get()
	out.PackU32(kindOneway)
	out.PackU32(ch)
	if build != nil {
		build(out)
	}
	ep.nic.Send(dst, ch, out.Bytes())
	ep.pool.Put(out)
}

// SendBody transmits a pre-built body as a one-way message on channel ch:
// the wire bytes are exactly those of Send packing body as one
// length-prefixed section, but the body is never re-copied into an outer
// buffer — the envelope words and the body's spans go to the NIC as a
// span list and are gathered once, into the wire message itself. Charges
// are identical to Send (the NIC still copies every byte); body may be
// released to a pool as soon as SendBody returns.
func (ep *Endpoint) SendBody(dst int, ch uint32, body *Buffer) {
	ep.sendBody(dst, ch, body, false)
}

// SendBodyZeroCopy is SendBody over a scatter-gather NIC: the borrowed
// sections of body are DMA'd straight from their source memory, so the
// sender and receiver CPUs are charged only for the inline bytes (envelope
// words and length prefixes) — not for the payload. Wire occupancy still
// covers every byte. This is the BIP long-message discipline the migration
// pipeline rides on.
func (ep *Endpoint) SendBodyZeroCopy(dst int, ch uint32, body *Buffer) {
	ep.sendBody(dst, ch, body, true)
}

func (ep *Endpoint) sendBody(dst int, ch uint32, body *Buffer, zeroCopy bool) {
	env := ep.pool.Get()
	env.PackU32(kindOneway)
	env.PackU32(ch)
	env.PackU32(uint32(body.Len()))
	var scratch [spanScratch][]byte
	segs := body.appendSegments(append(scratch[:0], env.data))
	cpuBytes := env.Len() + body.Len()
	if zeroCopy {
		cpuBytes = env.Len() + body.InlineLen()
	}
	ep.nic.SendV(dst, ch, segs, cpuBytes)
	ep.pool.Put(env)
}

// Call issues a request on channel ch to node dst; done runs on this node's
// actor when the reply arrives.
func (ep *Endpoint) Call(dst int, ch uint32, build func(*Buffer), done func(*Buffer)) {
	ep.CallDL(dst, ch, 0, build, replyFunc(done))
}

// CallDL is Call with a virtual-time delivery deadline: the receiver
// discards the request unanswered if it arrives after deadline. w gets
// the reply with the returned request id, so a waiter that retried can
// tell a late reply to an earlier request from the one it waits for. A
// deadline of 0 means none — the envelope degrades to a plain Call,
// byte-identical on the wire.
func (ep *Endpoint) CallDL(dst int, ch uint32, deadline simtime.Time, build func(*Buffer), w Waiter) uint32 {
	ep.nextReq++
	id := ep.nextReq
	ep.pending[id] = w
	out := ep.pool.Get()
	if deadline == 0 {
		out.PackU32(kindCall).PackU32(ch).PackU32(id)
	} else {
		out.PackU32(kindCallDL).PackU32(ch).PackU32(id).PackU64(uint64(deadline))
	}
	if build != nil {
		build(out)
	}
	ep.nic.Send(dst, ch, out.Bytes())
	ep.pool.Put(out)
	return id
}

func (ep *Endpoint) dispatch(src int, _ uint32, payload []byte) {
	msg := ep.inbound(payload)
	switch kind := msg.U32(); kind {
	case kindOneway:
		ch := msg.U32()
		h, ok := ep.handlers[ch]
		if !ok {
			panic(fmt.Sprintf("madeleine: node %d: no handler for channel %d", ep.ID(), ch))
		}
		h(src, msg)
	case kindCall, kindCallDL:
		ch := msg.U32()
		reqID := msg.U32()
		if kind == kindCallDL && ep.actor.Now() > simtime.Time(msg.U64()) {
			// The initiator has already timed out this request:
			// executing it now could double-apply a retried operation.
			// Store-and-forward delays (partitions) are exactly the case
			// this guards.
			break
		}
		h, ok := ep.calls[ch]
		if !ok {
			panic(fmt.Sprintf("madeleine: node %d: no call handler for channel %d", ep.ID(), ch))
		}
		c := ep.newCall(src, reqID, msg)
		h(src, c)
		c.serving = false
		if c.done {
			ep.releaseCall(c)
		}
		return
	case kindReply:
		reqID := msg.U32()
		w, ok := ep.pending[reqID]
		if !ok {
			panic(fmt.Sprintf("madeleine: node %d: reply for unknown request %d", ep.ID(), reqID))
		}
		delete(ep.pending, reqID)
		w.Reply(reqID, msg)
	default:
		panic(fmt.Sprintf("madeleine: bad envelope kind %d", kind))
	}
	ep.release(msg)
}

// inbound returns an unpack buffer over a delivered wire body.
func (ep *Endpoint) inbound(payload []byte) *Buffer {
	n := len(ep.freeBufs)
	if n == 0 {
		return FromBytes(payload)
	}
	b := ep.freeBufs[n-1]
	ep.freeBufs = ep.freeBufs[:n-1]
	b.data = payload
	return b
}

// release hands an inbound message's body back to the network and
// keeps its buffer for the next message; a poison build retires the
// buffer instead.
func (ep *Endpoint) release(msg *Buffer) {
	ep.nic.Release(msg.data)
	*msg = Buffer{dead: bip.Poison}
	if !bip.Poison {
		ep.freeBufs = append(ep.freeBufs, msg)
	}
}

// newCall wraps an inbound request for its handler.
func (ep *Endpoint) newCall(src int, reqID uint32, msg *Buffer) *Call {
	var c *Call
	if n := len(ep.freeCalls); n > 0 {
		c = ep.freeCalls[n-1]
		ep.freeCalls = ep.freeCalls[:n-1]
	} else {
		c = &Call{ep: ep}
	}
	c.src, c.reqID, c.Msg, c.done, c.serving = src, reqID, msg, false, true
	return c
}

// releaseCall releases an answered call and its request. The call
// stays done on the free list, so a stale Reply panics until the call
// is reused; a poison build never reuses it, so a stale Reply always
// panics.
func (ep *Endpoint) releaseCall(c *Call) {
	ep.release(c.Msg)
	c.Msg = nil
	if !bip.Poison {
		ep.freeCalls = append(ep.freeCalls, c)
	}
}
