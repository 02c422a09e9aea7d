package bench

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/pm2"
	"repro/internal/progs"
)

// The kernel-throughput measurement behind `pm2bench -fig scale`: how
// many events per second the serial event kernel executes at
// 64/256/1024/4096 nodes. The workload is a ring of compute-and-hop
// threads — every thread spins locally, migrates to (self+1) mod nodes,
// and repeats. Each cluster size also runs a negotiation burst per
// gather strategy (the per-gather columns): ring-hop threads never
// negotiate, so the burst is what exercises the §4.4 protocol. Virtual
// quantities (events, migrations, negotiations, merged bytes, virtual
// time) are exact; they are what benchcheck gates. Wall-clock figures
// measure the host and stay informational.

// ringHopSrc spins r2 iterations, hops to the next node round-robin,
// and repeats r1 times.
const ringHopSrc = `
.program ringhop
main:
    enter 8
    store [fp-4], r1        ; hops remaining
    store [fp-8], r2        ; spin per hop
loop:
    load  r3, [fp-8]
spin:
    loadi r4, 0
    beq   r3, r4, hop
    addi  r3, r3, -1
    br    spin
hop:
    load  r1, [fp-4]
    loadi r2, 0
    beq   r1, r2, done
    addi  r1, r1, -1
    store [fp-4], r1
    callb self_node
    addi  r1, r0, 1
    callb node_count
    mov   r2, r0
    mod   r1, r1, r2
    callb migrate
    br    loop
done:
    leave
    halt
`

// ScaleGatherReport is one gather strategy's negotiation burst on one
// cluster size: a fresh cluster, eight initiators spread around the
// ring, each asking for a multi-slot run it cannot satisfy locally
// (round-robin striping owns every nodes-th slot, so any contiguous
// k ≥ 2 is remote). The virtual quantities are exact; the wall-clock
// is informational.
type ScaleGatherReport struct {
	Gather string
	Events uint64
	// Negotiations/Failures are the cluster's own §4.4 counters; a
	// burst that fails to negotiate would show up here, not silently
	// shrink the merge volume.
	Negotiations  int
	Failures      int
	MergedBytes   uint64
	VirtualMicros float64
	WallMs        float64
}

// ScaleClusterReport is one cluster size's entry: the exact virtual
// quantities (CI-gated) and the drain's wall-clock, plus one
// negotiation-burst row per gather strategy.
type ScaleClusterReport struct {
	Nodes   int
	Threads int
	// Events is the total kernel events executed draining the workload —
	// an exact virtual quantity.
	Events        uint64
	Migrations    int
	VirtualMicros float64
	WallMs        float64
	EventsPerSec  float64
	Gathers       []ScaleGatherReport
}

// ScaleReport is the kernel-scaling figure. EventsSlopePerNode
// summarizes how total kernel work grows with cluster size over the
// measured points.
type ScaleReport struct {
	Hops int
	Spin int
	// EventsSlopePerNode is the least-squares slope of total events
	// against cluster size.
	EventsSlopePerNode float64
	Clusters           []ScaleClusterReport
}

// Rows states the scaling figure's gates: every virtual quantity is
// exact — the workload parameters, and per cluster size the thread
// count, events, migrations and virtual clock, plus each gather burst's
// events, negotiations, failures, merged bytes and virtual clock. They
// are deterministic counts, so any drift is a kernel behavior change,
// not noise. The wall-clock rows measure the host and ride along as
// context.
func (r ScaleReport) Rows() []Row {
	rows := []Row{
		{"scale", "hops", float64(r.Hops), "count", Exact},
		{"scale", "spin", float64(r.Spin), "count", Exact},
		{"scale", "events_slope", r.EventsSlopePerNode, "events/node", Info},
	}
	for _, cl := range r.Clusters {
		n := fmt.Sprintf("n%d.", cl.Nodes)
		rows = append(rows,
			Row{"scale", n + "threads", float64(cl.Threads), "count", Exact},
			Row{"scale", n + "events", float64(cl.Events), "count", Exact},
			Row{"scale", n + "migrations", float64(cl.Migrations), "count", Exact},
			Row{"scale", n + "virtual", cl.VirtualMicros, "us", Exact},
			Row{"scale", n + "wall", cl.WallMs, "ms", Info})
		for _, g := range cl.Gathers {
			ng := n + g.Gather + "."
			rows = append(rows,
				Row{"scale", ng + "events", float64(g.Events), "count", Exact},
				Row{"scale", ng + "negotiations", float64(g.Negotiations), "count", Exact},
				Row{"scale", ng + "failures", float64(g.Failures), "count", Exact},
				Row{"scale", ng + "merged", float64(g.MergedBytes), "B", Exact},
				Row{"scale", ng + "virtual", g.VirtualMicros, "us", Exact},
				Row{"scale", ng + "wall", g.WallMs, "ms", Info})
		}
	}
	return rows
}

// scaleThreads is the thread count for a given cluster size: one ring
// thread per two nodes keeps total virtual work linear in the cluster
// while leaving every other node free to serve migrations in.
func scaleThreads(nodes int) int {
	t := nodes / 2
	if t < 1 {
		t = 1
	}
	return t
}

// scaleCluster builds a cluster with the ring-hop workload queued:
// construction (image assembly, slot mmaps, thread creation) stays
// outside the timed region, which measures only the event drain.
func scaleCluster(nodes, hops, spin int) *pm2.Cluster {
	im := progs.NewImage()
	asm.MustAssemble(im, ringHopSrc)
	c := pm2.New(pm2.Config{
		Nodes: nodes,
		// A larger quantum gives each kernel event more simulated
		// instructions, matching the profile of a compute-bound cluster.
		Quantum: 256,
	}, im)
	threads := scaleThreads(nodes)
	for i := 0; i < threads; i++ {
		node := i % nodes
		c.At(node, func(n *pm2.Node) {
			entry, ok := c.Image().EntryOf("ringhop")
			if !ok {
				panic("bench: ringhop program missing")
			}
			th, err := n.Scheduler().Create(entry, uint32(hops))
			if err != nil {
				panic(err)
			}
			th.Regs.R[1] = uint32(hops)
			th.Regs.R[2] = uint32(spin)
			n.Kick()
		})
	}
	return c
}

// scaleRun drains the ring-hop workload on a fresh cluster and returns
// the exact virtual outcome plus the wall-clock the drain took.
func scaleRun(nodes, hops, spin int) (events uint64, migrations int, virtualMicros float64, wall time.Duration) {
	c := scaleCluster(nodes, hops, spin)
	start := time.Now()
	c.Run(0)
	wall = time.Since(start)
	st := c.Stats()
	return c.Engine().Steps(), st.Migrations, c.Now().Micros(), wall
}

// The negotiation burst: eight initiators spread around the ring each
// ask for a 3-slot contiguous run. Under round-robin striping a node
// owns every nodes-th slot, so a 3-run is never local and every request
// walks the full gather protocol (lock, gather, plan, buy, release).
const (
	scaleGatherInitiators = 8
	scaleGatherSlots      = 3
)

// scaleGatherRun drains one gather strategy's negotiation burst on a
// fresh cluster and returns the exact virtual outcome plus the
// wall-clock the drain took.
func scaleGatherRun(nodes int, gather pm2.GatherMode) (events uint64, negos, fails int, merged uint64, virtualMicros float64, wall time.Duration) {
	c := pm2.New(pm2.Config{
		Nodes:   nodes,
		Quantum: 256,
		Gather:  gather,
	}, progs.NewImage())
	inits := scaleGatherInitiators
	if inits > nodes {
		inits = nodes
	}
	for i := 0; i < inits; i++ {
		node := i * nodes / inits
		c.At(node, func(n *pm2.Node) {
			n.Negotiate(scaleGatherSlots, func(bool) {})
		})
	}
	start := time.Now()
	c.Run(0)
	wall = time.Since(start)
	st := c.Stats()
	return c.Engine().Steps(), st.Negotiations, st.NegotiationFailures,
		st.GatherMergedBytes, c.Now().Micros(), wall
}

// Scale measures the kernel at each cluster size: the ring-hop drain,
// then one negotiation burst per requested gather strategy.
func Scale(nodeCounts []int, hops, spin int, gathers []pm2.GatherMode) ScaleReport {
	rep := ScaleReport{Hops: hops, Spin: spin}
	var sx, sy, sxx, sxy float64
	for _, nodes := range nodeCounts {
		cl := ScaleClusterReport{Nodes: nodes, Threads: scaleThreads(nodes)}
		var wall time.Duration
		cl.Events, cl.Migrations, cl.VirtualMicros, wall = scaleRun(nodes, hops, spin)
		cl.WallMs = float64(wall.Microseconds()) / 1000
		if wall > 0 {
			cl.EventsPerSec = float64(cl.Events) / wall.Seconds()
		}
		for _, gm := range gathers {
			gr := ScaleGatherReport{Gather: gm.String()}
			gr.Events, gr.Negotiations, gr.Failures, gr.MergedBytes, gr.VirtualMicros, wall = scaleGatherRun(nodes, gm)
			gr.WallMs = float64(wall.Microseconds()) / 1000
			cl.Gathers = append(cl.Gathers, gr)
		}
		rep.Clusters = append(rep.Clusters, cl)
		sx += float64(nodes)
		sy += float64(cl.Events)
		sxx += float64(nodes) * float64(nodes)
		sxy += float64(nodes) * float64(cl.Events)
	}
	if n := float64(len(nodeCounts)); n >= 2 {
		rep.EventsSlopePerNode = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	}
	return rep
}
