package bench

import (
	"testing"

	"repro/internal/pm2"
)

// TestScaleDeterministic pins the scale figure's virtual quantities at
// small sizes: two runs report identical virtual columns, the workloads
// exercise the kernel, and the event count scales linearly with the
// cluster.
func TestScaleDeterministic(t *testing.T) {
	gathers := []pm2.GatherMode{pm2.GatherSequential, pm2.GatherTree, pm2.GatherDelta}
	rep := Scale([]int{8, 16}, 4, 200, gathers)
	if again := Scale([]int{8, 16}, 4, 200, gathers); !sameVirtual(rep, again) {
		t.Fatalf("two runs disagree:\n%+v\n%+v", rep, again)
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

// sameVirtual reports whether two scale reports agree on every exact
// row, leaving out the wall-clock ones.
func sameVirtual(a, b ScaleReport) bool {
	ra, rb := a.Rows(), b.Rows()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i].Gate == Exact && ra[i] != rb[i] {
			return false
		}
	}
	return true
}
