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

// TestQuantumAllocations extends TestKernelStepAllocations from the
// bare kernel to the runtime's pump: once warm, one scheduler quantum —
// the pump event, a context switch, 64 interpreted instructions and the
// next pump post — allocates nothing. It covers a pure spin loop and
// the worker program, whose threads also load and store through an
// isomalloc'd cell and yield.
func TestQuantumAllocations(t *testing.T) {
	for _, prog := range []string{"spin", "worker"} {
		t.Run(prog, func(t *testing.T) {
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
