package pm2

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/progs"
)

// spinSrc is a compute-bound thread: it counts to r1 without touching
// memory or calling a builtin, so the scheduler preempts it at every
// quantum boundary.
const spinSrc = `
.program spin
main:
    loadi r2, 0
top:
    addi  r2, r2, 1
    bne   r2, r1, top
    halt
`

// quantumCluster returns a one-node cluster running four threads of
// prog, none of which ever ends, warmed up by 4096 quanta.
func quantumCluster(t *testing.T, prog string) (*Cluster, *Node) {
	t.Helper()
	im := progs.NewImage()
	if _, err := asm.Assemble(im, spinSrc); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Nodes: 1}, im)
	entry, _ := im.EntryOf(prog)
	c.At(0, func(n *Node) {
		for i := 0; i < 4; i++ {
			if _, err := n.Scheduler().Create(entry, 1<<30); err != nil {
				t.Fatal(err)
			}
		}
		n.Kick()
	})
	c.Run(4096)
	return c, c.Node(0)
}

// TestQuantumAllocations extends TestKernelStepAllocations from the
// bare kernel to the runtime's pump: once warm, one scheduler quantum —
// the pump event, a context switch, 64 interpreted instructions and the
// next pump post — allocates nothing. It covers a pure spin loop and
// the worker program, whose threads also load and store through an
// isomalloc'd cell and yield.
func TestQuantumAllocations(t *testing.T) {
	for _, prog := range []string{"spin", "worker"} {
		t.Run(prog, func(t *testing.T) {
			c, _ := quantumCluster(t, prog)
			steps := c.Engine().Steps()
			allocs := testing.AllocsPerRun(500, func() { c.Run(1) })
			if got := c.Engine().Steps() - steps; got != 501 {
				t.Fatalf("ran %d events, want 501 quanta", got)
			}
			if allocs != 0 {
				t.Fatalf("a steady-state quantum allocates %.2f times, want 0", allocs)
			}
		})
	}
}

// TestQuantumTLBMisses pins the per-thread TLBs: once warm, a thread
// switch finds the thread's stack and data pages still cached, so the
// threads' and the space's TLBs together miss at most 0.05 times per
// quantum. One TLB per space, shared by all threads, missed about 1.9
// times per quantum on the worker program: every thread's stack-top
// page maps to the same entry.
func TestQuantumTLBMisses(t *testing.T) {
	for _, prog := range []string{"spin", "worker"} {
		t.Run(prog, func(t *testing.T) {
			c, n := quantumCluster(t, prog)
			misses := func() uint64 { return n.Scheduler().TLBMisses() + n.Space().TLBMisses() }
			_, _, _, d0, _ := n.Scheduler().Stats()
			m0 := misses()
			c.Run(4096)
			_, _, _, d1, _ := n.Scheduler().Stats()
			if d1-d0 != 4096 {
				t.Fatalf("ran %d quanta, want 4096", d1-d0)
			}
			per := float64(misses()-m0) / float64(d1-d0)
			t.Logf("%.4f TLB misses per quantum", per)
			if per > 0.05 {
				t.Fatalf("%.3f TLB misses per quantum, want at most 0.05", per)
			}
		})
	}
}
