package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/pm2"
	"repro/internal/progs"
)

// The kernel-scaling measurement behind `pm2bench -fig scale`: how many
// events per second the lane-decomposed kernel executes at
// 64/256/1024/4096 nodes, serially and on a worker pool. The workload
// is a ring of compute-and-hop threads — every thread spins locally,
// migrates to (self+1) mod nodes, and repeats — so every lane has
// private work between cross-lane messages and the conservative windows
// have real width. Each cluster size also runs a negotiation burst per
// gather strategy (the per-gather columns): ring-hop threads never
// negotiate, so the burst is what exercises the §4.4 protocol — and
// every gather runs under the parallel kernel too. Virtual quantities (events, migrations,
// negotiations, merged bytes, virtual time) are exact and identical at
// any worker count; they are what benchcheck gates. Wall-clock figures
// are the machine-dependent payoff and stay informational.

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

// ScaleWorkerRun is one worker count's execution of a cluster's
// workload. Wall-clock and derived throughput are informational (they
// measure the machine); the virtual outcome is asserted identical to
// the serial run before the row is emitted.
type ScaleWorkerRun struct {
	Workers      int     `json:"workers"`
	WallMs       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is serial wall-clock over this run's wall-clock.
	Speedup float64 `json:"speedup"`
}

// ScaleGatherReport is one gather strategy's negotiation burst on one
// cluster size: a fresh cluster, eight initiators spread around the
// ring, each asking for a multi-slot run it cannot satisfy locally
// (round-robin striping owns every nodes-th slot, so any contiguous
// k ≥ 2 is remote). The virtual quantities are exact and identical at
// every worker count — the gate that pins "every gather composes with
// the parallel kernel" in CI; the per-worker runs are informational.
type ScaleGatherReport struct {
	Gather string `json:"gather"`
	Events uint64 `json:"events"`
	// Negotiations/Failures are the cluster's own §4.4 counters; a
	// burst that fails to negotiate would show up here, not silently
	// shrink the merge volume.
	Negotiations  int              `json:"negotiations"`
	Failures      int              `json:"failures"`
	MergedBytes   uint64           `json:"merged_bytes"`
	VirtualMicros float64          `json:"virtual_us"`
	Runs          []ScaleWorkerRun `json:"runs"`
}

// ScaleClusterReport is one cluster size's entry: the exact virtual
// quantities (CI-gated) and the per-worker wall-clock runs, plus one
// negotiation-burst row per gather strategy.
type ScaleClusterReport struct {
	Nodes   int `json:"nodes"`
	Threads int `json:"threads"`
	// Events is the total kernel events executed draining the workload —
	// an exact virtual quantity, identical at every worker count.
	Events        uint64              `json:"events"`
	Migrations    int                 `json:"migrations"`
	VirtualMicros float64             `json:"virtual_us"`
	Runs          []ScaleWorkerRun    `json:"runs"`
	Gathers       []ScaleGatherReport `json:"gathers,omitempty"`
}

// ScaleReport is the BENCH_scale.json schema. CI runs `pm2bench -fig
// scale -json` and benchcheck requires the virtual quantities to match
// ci/BENCH_scale.baseline.json exactly — they are deterministic event
// counts, not timings, so any drift is a kernel behavior change, not
// noise. EventsSlopePerNode summarizes how total kernel work grows with
// cluster size over the measured points.
type ScaleReport struct {
	Figure string `json:"figure"`
	Hops   int    `json:"hops"`
	Spin   int    `json:"spin"`
	// MaxProcs records runtime.GOMAXPROCS at measurement time. On a
	// single-core runner the worker pool cannot physically run lanes
	// concurrently, so wall-clock speedups are meaningless there — the
	// parity guarantee is carried entirely by the exact virtual
	// quantities. benchcheck reads this to decide how to present the
	// wall-clock columns; the virtual gate is unconditional.
	MaxProcs int `json:"maxprocs"`
	// EventsSlopePerNode is the least-squares slope of total events
	// against cluster size — the events/sec slope divides this by the
	// measured wall-clock, so the virtual slope is the gated part.
	EventsSlopePerNode float64              `json:"events_slope_per_node"`
	Clusters           []ScaleClusterReport `json:"clusters"`
}

// scaleThreads is the thread count for a given cluster size: one ring
// thread per two nodes keeps total virtual work linear in the cluster
// while leaving every other lane free to serve migrations in, so
// windows always have both busy and idle lanes.
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
func scaleCluster(nodes, workers, hops, spin int) *pm2.Cluster {
	im := progs.NewImage()
	asm.MustAssemble(im, ringHopSrc)
	c := pm2.New(pm2.Config{
		Nodes: nodes,
		// A larger quantum gives each kernel event more simulated
		// instructions, matching the profile of a compute-bound cluster
		// and giving the worker pool meaningful work per event.
		Quantum: 256,
		Workers: workers,
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
func scaleRun(nodes, workers, hops, spin int) (events uint64, migrations int, virtualMicros float64, wall time.Duration) {
	c := scaleCluster(nodes, workers, hops, spin)
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
func scaleGatherRun(nodes, workers int, gather pm2.GatherMode) (events uint64, negos, fails int, merged uint64, virtualMicros float64, wall time.Duration) {
	c := pm2.New(pm2.Config{
		Nodes:   nodes,
		Quantum: 256,
		Workers: workers,
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

// Scale measures the kernel at each cluster size under each worker
// count: the ring-hop drain, then one negotiation burst per requested
// gather strategy. The serial run of every workload is the reference:
// any worker count that produces different virtual quantities panics,
// so the report can never show a speedup bought with divergence.
func Scale(nodeCounts, workerCounts []int, hops, spin int, gathers []pm2.GatherMode) ScaleReport {
	rep := ScaleReport{Figure: "scale", Hops: hops, Spin: spin, MaxProcs: runtime.GOMAXPROCS(0)}
	var sx, sy, sxx, sxy float64
	for _, nodes := range nodeCounts {
		cl := ScaleClusterReport{Nodes: nodes, Threads: scaleThreads(nodes)}
		var serialWall time.Duration
		for i, workers := range workerCounts {
			events, migs, vus, wall := scaleRun(nodes, workers, hops, spin)
			if i == 0 {
				if workers != 1 {
					panic("bench: scale worker counts must start at 1 (the serial reference)")
				}
				cl.Events, cl.Migrations, cl.VirtualMicros = events, migs, vus
				serialWall = wall
			} else if events != cl.Events || migs != cl.Migrations || vus != cl.VirtualMicros {
				panic(fmt.Sprintf("bench: scale n=%d workers=%d diverged from serial: events %d/%d migrations %d/%d virtual %.3f/%.3f",
					nodes, workers, events, cl.Events, migs, cl.Migrations, vus, cl.VirtualMicros))
			}
			run := ScaleWorkerRun{Workers: workers, WallMs: float64(wall.Microseconds()) / 1000}
			if wall > 0 {
				run.EventsPerSec = float64(events) / wall.Seconds()
				run.Speedup = float64(serialWall) / float64(wall)
			}
			cl.Runs = append(cl.Runs, run)
		}
		for _, gm := range gathers {
			gr := ScaleGatherReport{Gather: gm.String()}
			var gatherSerialWall time.Duration
			for i, workers := range workerCounts {
				events, negos, fails, merged, vus, wall := scaleGatherRun(nodes, workers, gm)
				if i == 0 {
					gr.Events, gr.Negotiations, gr.Failures = events, negos, fails
					gr.MergedBytes, gr.VirtualMicros = merged, vus
					gatherSerialWall = wall
				} else if events != gr.Events || negos != gr.Negotiations || fails != gr.Failures ||
					merged != gr.MergedBytes || vus != gr.VirtualMicros {
					panic(fmt.Sprintf("bench: scale n=%d gather=%v workers=%d diverged from serial: events %d/%d negotiations %d/%d failures %d/%d merged %d/%d virtual %.3f/%.3f",
						nodes, gm, workers, events, gr.Events, negos, gr.Negotiations,
						fails, gr.Failures, merged, gr.MergedBytes, vus, gr.VirtualMicros))
				}
				run := ScaleWorkerRun{Workers: workers, WallMs: float64(wall.Microseconds()) / 1000}
				if wall > 0 {
					run.EventsPerSec = float64(events) / wall.Seconds()
					run.Speedup = float64(gatherSerialWall) / float64(wall)
				}
				gr.Runs = append(gr.Runs, run)
			}
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
