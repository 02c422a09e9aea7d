// Package bip simulates the BIP low-level communication interface over a
// Myrinet network, the interconnect of the paper's PoPC cluster.
//
// Each node owns a NIC attached to a shared Network. Messages are tagged
// byte payloads; delivery charges the calibrated BIP costs: sender CPU
// overhead, one-way latency plus serialization on the sender's outgoing
// link (with link occupancy, so back-to-back messages queue), and receiver
// CPU overhead. All of it happens in virtual time on the discrete-event
// engine, deterministically.
package bip

import (
	"fmt"
	"math/bits"

	"repro/internal/cost"
	"repro/internal/simtime"
)

// Handler receives a delivered message on the destination node's actor.
// The payload is lent to the receiver: it may keep reading it after the
// handler returns, and hands it back with NIC.Release once it no longer
// does. A payload that is never released is simply garbage-collected.
type Handler func(src int, tag uint32, payload []byte)

// Wire bodies of up to 1<<maxBodyShift bytes are recycled through the
// network's free lists, one per power-of-two size class from
// 1<<minBodyShift up. The largest class holds a slot-bitmap reply
// (layout.BitmapBytes, 7 KB, plus its envelope): every negotiation
// message fits. Larger bodies are thread images and convoys, which
// install copies into simulated memory anyway; pooling them would keep
// the peak of in-flight migrations alive after a run.
const (
	minBodyShift = 6
	maxBodyShift = 13
	bodyClasses  = maxBodyShift - minBodyShift + 1
)

// bodyClass returns the size class of an n-byte body, or -1 when n is
// too large to pool.
func bodyClass(n int) int {
	if n > 1<<maxBodyShift {
		return -1
	}
	if n <= 1<<minBodyShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minBodyShift
}

// Stats aggregates traffic counters for a network.
type Stats struct {
	Messages uint64
	Bytes    uint64
	// Dropped counts messages the fault policy discarded (sends whose
	// delivery would land on a crashed node).
	Dropped uint64
}

// FaultPolicy lets a failure model adjust every remote delivery.
// Adjust is consulted at send time with the send start and the
// fault-free delivery instant; it returns the (possibly delayed)
// delivery time and whether the message is dropped instead. It must be
// a pure function of its arguments so delivery stays deterministic.
type FaultPolicy interface {
	Adjust(src, dst int, start, arrive simtime.Time) (simtime.Time, bool)
}

// Network is the shared Myrinet fabric connecting all NICs of a cluster.
type Network struct {
	eng    *simtime.Engine
	model  *cost.Model
	nics   []*NIC
	faults FaultPolicy

	bodies   [bodyClasses][][]byte
	transits []*transit
}

// Release hands a delivered payload back to the network, once the
// receiver no longer reads it or any slice of it. Bodies too large to
// pool are left to the garbage collector. A poison build overwrites
// every released body, so a reader that kept an alias sees garbage.
func (n *NIC) Release(payload []byte) {
	c := cap(payload)
	class := bodyClass(c)
	if class < 0 || c != 1<<(class+minBodyShift) {
		return
	}
	body := payload[:c]
	if Poison {
		for i := range body {
			body[i] = poisonByte
		}
	}
	nw := n.net
	nw.bodies[class] = append(nw.bodies[class], body)
}

// poisonByte fills released bodies in a poison build.
const poisonByte = 0xA5

// transit is one message in flight to dst. Records are recycled
// through the network's free list; run is the record's deliver method,
// bound once when the record is made, so posting a delivery allocates
// nothing.
type transit struct {
	dst      *NIC
	src      int
	tag      uint32
	cpuBytes int
	body     []byte
	run      func()
}

// carry gathers segs into a body from the free list of its size class
// and wraps it in a transit record for dst.
func (nw *Network) carry(dst *NIC, src int, tag uint32, segs [][]byte, total, cpuBytes int) *transit {
	class := bodyClass(total)
	var body []byte
	var d *transit
	if class >= 0 {
		if k := len(nw.bodies[class]); k > 0 {
			body = nw.bodies[class][k-1]
			nw.bodies[class] = nw.bodies[class][:k-1]
		}
	}
	if k := len(nw.transits); k > 0 {
		d = nw.transits[k-1]
		nw.transits = nw.transits[:k-1]
	}
	switch {
	case body != nil:
	case class < 0:
		body = make([]byte, 0, total)
	default:
		body = make([]byte, 0, 1<<(class+minBodyShift))
	}
	body = body[:0]
	for _, s := range segs {
		body = append(body, s...)
	}
	if d == nil {
		d = &transit{}
		d.run = d.deliver
	}
	d.dst, d.src, d.tag, d.cpuBytes, d.body = dst, src, tag, cpuBytes, body
	return d
}

// deliver charges the receive overhead (none on loopback) and runs the
// receiver's handler. The record goes back to the free list first, so
// the handler's own sends can reuse it.
func (d *transit) deliver() {
	dst, src, tag, body := d.dst, d.src, d.tag, d.body
	if src != dst.id {
		dst.actor.Charge(dst.net.model.Recv(d.cpuBytes))
	}
	d.body = nil
	dst.net.transits = append(dst.net.transits, d)
	dst.handler(src, tag, body)
}

// SetFaults installs a fault policy consulted on every remote send.
// A nil policy (the default) is a healthy network.
func (nw *Network) SetFaults(p FaultPolicy) { nw.faults = p }

// NewNetwork creates a network for n nodes. Each node i must later attach a
// NIC with Attach(i, actor, handler).
func NewNetwork(eng *simtime.Engine, model *cost.Model, n int) *Network {
	if n <= 0 {
		panic("bip: network needs at least one node")
	}
	return &Network{eng: eng, model: model, nics: make([]*NIC, n)}
}

// Size returns the number of node ports on the network.
func (nw *Network) Size() int { return len(nw.nics) }

// Stats returns the traffic counters, summed over the per-NIC tallies.
func (nw *Network) Stats() Stats {
	var s Stats
	for _, nic := range nw.nics {
		if nic != nil {
			s.Messages += nic.sent
			s.Bytes += nic.sentBytes
			s.Dropped += nic.dropped
		}
	}
	return s
}

// Attach creates node id's NIC, bound to its CPU actor and inbound handler.
func (nw *Network) Attach(id int, actor *simtime.Actor, h Handler) *NIC {
	if id < 0 || id >= len(nw.nics) {
		panic(fmt.Sprintf("bip: node id %d out of range", id))
	}
	if nw.nics[id] != nil {
		panic(fmt.Sprintf("bip: node %d already attached", id))
	}
	nic := &NIC{net: nw, id: id, actor: actor, handler: h}
	nw.nics[id] = nic
	return nic
}

// NIC is one node's network interface.
type NIC struct {
	net     *Network
	id      int
	actor   *simtime.Actor
	handler Handler
	// linkFreeAt is the instant the outgoing link finishes its current
	// transmission; later sends serialize behind it.
	linkFreeAt simtime.Time
	// sent / sentBytes / dropped are this NIC's outbound traffic
	// counters, summed by Network.Stats.
	sent      uint64
	sentBytes uint64
	dropped   uint64
}

// ID returns the node id of this NIC.
func (n *NIC) ID() int { return n.id }

// SentCounters returns the NIC's outbound tallies for checkpointing.
func (n *NIC) SentCounters() (sent, sentBytes, dropped uint64) {
	return n.sent, n.sentBytes, n.dropped
}

// RestoreSentCounters installs tallies captured by SentCounters —
// restore-time state installation only.
func (n *NIC) RestoreSentCounters(sent, sentBytes, dropped uint64) {
	n.sent, n.sentBytes, n.dropped = sent, sentBytes, dropped
}

// Send transmits payload to node dst with the given tag. It must be called
// from within the owning node's actor handler: the sender-side CPU cost is
// charged to that actor, and the message is delivered to the destination
// actor after the wire delay. Sending to self is a cheap loopback.
func (n *NIC) Send(dst int, tag uint32, payload []byte) {
	n.sendGathered(dst, tag, [][]byte{payload}, len(payload))
}

// SendV is the scatter-gather send: the message is the concatenation of
// segs, gathered once — directly into the wire body — instead of being
// concatenated by the caller first. cpuBytes is the portion of the message
// the sender and receiver CPUs actually touch: pass the total length for a
// programmed-I/O send (charges identical to Send), or just the
// header/express bytes when the payload segments are DMA'd from their
// source memory (BIP's zero-copy long-message mode) — wire occupancy
// always covers every byte. The segments are consumed synchronously:
// callers may reuse them once SendV returns.
func (n *NIC) SendV(dst int, tag uint32, segs [][]byte, cpuBytes int) {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if cpuBytes < 0 || cpuBytes > total {
		panic(fmt.Sprintf("bip: SendV cpuBytes %d out of range [0,%d]", cpuBytes, total))
	}
	n.sendGathered(dst, tag, segs, cpuBytes)
}

func (n *NIC) sendGathered(dst int, tag uint32, segs [][]byte, cpuBytes int) {
	nw := n.net
	if dst < 0 || dst >= len(nw.nics) || nw.nics[dst] == nil {
		panic(fmt.Sprintf("bip: send to invalid node %d", dst))
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	n.sent++
	n.sentBytes += uint64(total)

	m := nw.model
	if dst == n.id {
		// Loopback: no NIC/wire involved, just a local queue hop.
		n.actor.Charge(m.Send(cpuBytes) / 4)
		n.actor.Post(n.actor.Now(), nw.carry(n, n.id, tag, segs, total, cpuBytes).run)
		return
	}

	// Sender CPU: overhead + copy of the CPU-touched bytes into the NIC
	// buffer (everything for programmed I/O, headers only under DMA).
	n.actor.Charge(m.Send(cpuBytes))

	// Wire: serialize on this NIC's outgoing link.
	start := n.actor.Now()
	if n.linkFreeAt > start {
		start = n.linkFreeAt
	}
	arrive := start + m.WireTime(total)
	n.linkFreeAt = arrive

	// Failure model: partitions delay the delivery, slow windows stretch
	// it, and a delivery landing on a crashed node is dropped on the
	// floor. The link was still occupied either way — linkFreeAt keeps
	// the fault-free serialization point so the sender's own timing
	// never depends on the fate of the message. A dropped message is
	// decided before it is gathered, so it takes no body and no record.
	if nw.faults != nil {
		var drop bool
		arrive, drop = nw.faults.Adjust(n.id, dst, start, arrive)
		if drop {
			n.dropped++
			return
		}
	}

	// Gather once: this is the single host-side copy of the data path,
	// and it doubles as the delivery body (lent to the receiver).
	dstNIC := nw.nics[dst]
	dstNIC.actor.Post(arrive, nw.carry(dstNIC, n.id, tag, segs, total, cpuBytes).run)
}
