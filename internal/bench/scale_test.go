package bench

import (
	"testing"

	"repro/internal/pm2"
)

// TestScaleDeterministic pins the scale figure's virtual quantities at
// small sizes: Scale itself asserts every worker count reproduces the
// serial run exactly (it panics on divergence) — for the ring-hop drain
// and for every gather burst — so a passing run is the identity proof;
// here we additionally require the workloads to exercise the kernel and
// the event count to scale linearly with the cluster.
func TestScaleDeterministic(t *testing.T) {
	gathers := []pm2.GatherMode{pm2.GatherSequential, pm2.GatherTree, pm2.GatherDelta}
	rep := Scale([]int{8, 16}, []int{1, 2, 4}, 4, 200, gathers)
	if rep.MaxProcs < 1 {
		t.Errorf("MaxProcs = %d, want >= 1", rep.MaxProcs)
	}
	for _, cl := range rep.Clusters {
		if cl.Migrations != cl.Threads*rep.Hops {
			t.Errorf("n=%d: %d migrations, want threads*hops = %d", cl.Nodes, cl.Migrations, cl.Threads*rep.Hops)
		}
		if cl.Events == 0 {
			t.Errorf("n=%d: no events", cl.Nodes)
		}
		if len(cl.Gathers) != len(gathers) {
			t.Fatalf("n=%d: %d gather rows, want %d", cl.Nodes, len(cl.Gathers), len(gathers))
		}
		for _, g := range cl.Gathers {
			if g.Negotiations != scaleGatherInitiators || g.Failures != 0 {
				t.Errorf("n=%d %s: %d negotiations (%d failed), want %d clean",
					cl.Nodes, g.Gather, g.Negotiations, g.Failures, scaleGatherInitiators)
			}
			if g.MergedBytes == 0 || g.Events == 0 {
				t.Errorf("n=%d %s: merged %d bytes over %d events — burst did not gather",
					cl.Nodes, g.Gather, g.MergedBytes, g.Events)
			}
		}
	}
	// Thread count doubles with the cluster, so total events must too —
	// the linear slope the full figure reports at 64/256/1024.
	if got, want := rep.Clusters[1].Events, 2*rep.Clusters[0].Events; got != want {
		t.Errorf("events did not scale linearly: n=16 has %d, want %d (2× n=8)", got, want)
	}
}

// TestScaleWindowShape pins that the ring-hop workload actually
// decomposes into wide windows — the structural parallelism the figure
// measures. The schedule is deterministic, so the window accounting is
// an exact quantity: with one ring thread per two nodes and spin far
// longer than the horizon, every busy lane participates in every
// window.
func TestScaleWindowShape(t *testing.T) {
	c := scaleCluster(64, 8, 16, 2000)
	c.Run(0)
	ws := c.Engine().WindowStats()
	if ws.ParallelWindows == 0 {
		t.Fatal("no parallel windows formed")
	}
	mean := float64(ws.Participants) / float64(ws.ParallelWindows)
	if mean < 16 {
		t.Errorf("mean participants per window = %.1f, want >= 16 (of 32 busy lanes)", mean)
	}
	if ws.ParallelEvents+ws.SingleLaneWindows == 0 {
		t.Error("no events executed inside windows")
	}
}
