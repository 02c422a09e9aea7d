package perf

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// The benchmark's own copies of the guest programs. They are inputs, like
// the seeds: keeping them here means an edit to internal/progs or to the
// scenario harness cannot silently change what a workload runs, and the
// workload digests (digest.go) cover their exact text.
//
// Where a program needs several parameters they are packed into the one
// spawn argument (r1), so every thread starts through Cluster.SpawnCohort.

// ringSrc hops around the ring: arg = hops | spin<<8 | blockKB<<24. It
// spins spin iterations, migrates to (self+1) mod nodes, and repeats hops
// times. With blockKB > 0 it first isomallocs a blockKB KB block, stores
// its own argument in it as a marker, and checks the marker after every
// hop — the iso-address property under real pack/install bytes. With
// spin = 0 and two nodes it is the paper's §5 null ping-pong.
const ringSrc = `
.program perfring
.string fmt_done "ring %u done on node %d\n"
.string fmt_bad  "ring BAD marker %u on node %d\n"
main:
    enter 16                ; hops fp-4, spin fp-8, block fp-12, arg fp-16
    store [fp-16], r1
    loadi r2, 255
    and   r3, r1, r2
    store [fp-4], r3
    loadi r2, 8
    shr   r3, r1, r2
    loadi r2, 0xffff
    and   r3, r3, r2
    store [fp-8], r3
    loadi r2, 0
    store [fp-12], r2
    loadi r2, 24
    shr   r3, r1, r2        ; block size in KB
    loadi r2, 0
    beq   r3, r2, loop
    loadi r2, 1024
    mul   r1, r3, r2
    callb isomalloc
    store [fp-12], r0
    loadi r2, 0
    beq   r0, r2, bad
    load  r3, [fp-16]
    store [r0], r3          ; marker = the thread's own argument
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
    load  r4, [fp-12]
    loadi r5, 0
    beq   r4, r5, loop
    load  r3, [r4]          ; the marker must survive every hop
    load  r5, [fp-16]
    beq   r3, r5, loop
bad:
    callb self_node
    mov   r3, r0
    load  r2, [fp-16]
    loadi r1, fmt_bad
    callb printf
    leave
    halt
done:
    load  r1, [fp-12]
    loadi r2, 0
    beq   r1, r2, out
    callb isofree
out:
    callb self_node
    mov   r3, r0
    load  r2, [fp-16]
    loadi r1, fmt_done
    callb printf
    leave
    halt
`

// allocSrc is the allocator loop: arg = count | seed<<8. It makes count
// isomallocs, each of a size between 130 and 250 KB drawn from a guest
// LCG seeded by seed, and chains the blocks into a list whose nodes carry
// their index as a marker ({index, next} at the block head). At the end
// it walks the list checking every marker and frees each block. Blocks
// of three or more slots are never local under round-robin striping, so
// every allocation negotiates (§4.4).
const allocSrc = `
.program perfalloc
.string fmt_done "alloc %u done on node %d\n"
.string fmt_bad  "alloc BAD marker %u on node %d\n"
.string fmt_fail "alloc %u failed on node %d\n"
main:
    enter 20                ; count fp-4, lcg fp-8, head fp-12, i fp-16, arg fp-20
    store [fp-20], r1
    loadi r2, 255
    and   r3, r1, r2
    store [fp-4], r3
    loadi r2, 8
    shr   r3, r1, r2
    store [fp-8], r3
    loadi r2, 0
    store [fp-12], r2
    store [fp-16], r2
aloop:
    load  r2, [fp-16]
    load  r3, [fp-4]
    bge   r2, r3, walk
    call  lcg
    loadi r2, 121
    mod   r1, r0, r2
    addi  r1, r1, 130
    loadi r2, 1024
    mul   r1, r1, r2        ; 130..250 KB
    callb isomalloc
    loadi r2, 0
    beq   r0, r2, fail
    load  r2, [fp-16]
    store [r0], r2          ; marker = allocation index
    load  r3, [fp-12]
    store [r0+4], r3        ; next = head
    store [fp-12], r0       ; head = block
    addi  r2, r2, 1
    store [fp-16], r2
    br    aloop
lcg:                        ; x = x*1103515245 + 12345 in main's fp-8; r0 = x>>16
    load  r4, [fp-8]        ; (caller frame: lcg has no frame of its own)
    loadi r5, 1103515245
    mul   r4, r4, r5
    loadi r5, 12345
    add   r4, r4, r5
    store [fp-8], r4
    loadi r5, 16
    shr   r0, r4, r5
    ret
walk:                       ; markers read count-1 down to 0
    load  r4, [fp-12]
    loadi r5, 0
    beq   r4, r5, done
    load  r2, [fp-16]
    addi  r2, r2, -1
    store [fp-16], r2
    load  r3, [r4]
    bne   r3, r2, bad
    load  r5, [r4+4]
    store [fp-12], r5
    mov   r1, r4
    callb isofree
    br    walk
done:
    callb self_node
    mov   r3, r0
    load  r2, [fp-20]
    loadi r1, fmt_done
    callb printf
    leave
    halt
bad:
    callb self_node
    mov   r3, r0
    load  r2, [fp-20]
    loadi r1, fmt_bad
    callb printf
    leave
    halt
fail:
    callb self_node
    mov   r3, r0
    load  r2, [fp-20]
    loadi r1, fmt_fail
    callb printf
    leave
    halt
`

// workerSrc runs a compute loop of r1 iterations through a private
// isomalloc'd accumulator cell, yielding every 64 iterations so the
// scheduler (and the balancer) can preempt and move it.
const workerSrc = `
.program worker
.string fmt_done "worker %p finished on node %d\n"
main:
    enter 12                ; iters fp-4, acc-cell fp-8, i fp-12
    store [fp-4], r1
    loadi r1, 64
    callb isomalloc
    store [fp-8], r0
    loadi r2, 0
    store [fp-12], r2
wtop:
    load  r2, [fp-12]
    load  r3, [fp-4]
    bge   r2, r3, wdone
    load  r4, [fp-8]
    load  r5, [r4]
    add   r5, r5, r2
    store [r4], r5
    addi  r2, r2, 1
    store [fp-12], r2
    loadi r6, 63
    and   r7, r2, r6
    loadi r6, 0
    bne   r7, r6, wtop
    callb yield
    br    wtop
wdone:
    callb self_thread
    mov   r2, r0
    callb self_node
    mov   r3, r0
    loadi r1, fmt_done
    callb printf
    load  r1, [fp-8]
    callb isofree
    leave
    halt
`

// chainSrc recurses to depth arg&0xff, migrates at the deepest frame and
// unwinds summing 1..depth: every return address and saved frame pointer
// must survive the mid-recursion hop. The hop target is arg>>8 minus one,
// or (self+1) mod nodes when arg>>8 is zero.
const chainSrc = `
.program chain
.string fmt_sum "chain sum = %d on node %d\n"
main:
    enter 4
    loadi r2, 8
    shr   r3, r1, r2        ; target+1
    loadi r2, 255
    and   r1, r1, r2        ; depth
    push  r3
    push  r1
    call  crec
    addi  sp, sp, 8
    mov   r2, r0
    callb self_node
    mov   r3, r0
    loadi r1, fmt_sum
    callb printf
    leave
    halt

crec:                       ; n at [fp+8], target+1 at [fp+12]; returns 1+..+n
    enter 4
    load  r1, [fp+8]
    loadi r2, 2
    bge   r1, r2, cdeeper
    load  r1, [fp+12]
    loadi r2, 0
    beq   r1, r2, cnext
    addi  r1, r1, -1
    br    chop
cnext:
    callb self_node
    addi  r1, r0, 1
    callb node_count
    mov   r2, r0
    mod   r1, r1, r2
chop:
    callb migrate           ; at maximum stack depth
    load  r0, [fp+8]
    leave
    ret
cdeeper:
    load  r1, [fp+8]
    store [fp-4], r1
    addi  r1, r1, -1
    load  r3, [fp+12]
    push  r3
    push  r1
    call  crec
    addi  sp, sp, 8
    load  r1, [fp-4]
    add   r0, r0, r1
    leave
    ret
`

// negoSrc allocates a multi-slot block of r1 bytes (a negotiation under
// round-robin striping), writes a marker through the pointer, yields to
// invite a preemptive migration, checks the marker and frees the block
// wherever the thread ended up. A failed allocation is reported as such,
// not as a bad marker: lost work is counted, corruption fails the run.
const negoSrc = `
.program negostress
.string fmt_done "negostress %u freed on node %d\n"
.string fmt_bad  "negostress BAD marker %d\n"
.string fmt_fail "negostress %u failed on node %d\n"
main:
    enter 8
    store [fp-4], r1
    callb isomalloc
    store [fp-8], r0
    loadi r2, 0
    beq   r0, r2, fail
    loadi r3, 4051
    store [r0], r3
    callb yield
    load  r4, [fp-8]
    load  r5, [r4]
    loadi r3, 4051
    beq   r5, r3, good
    mov   r2, r5
    loadi r1, fmt_bad
    callb printf
    leave
    halt
good:
    load  r1, [fp-8]
    callb isofree
    callb self_node
    mov   r3, r0
    load  r2, [fp-4]
    loadi r1, fmt_done
    callb printf
    leave
    halt
fail:
    callb self_node
    mov   r3, r0
    load  r2, [fp-4]
    loadi r1, fmt_fail
    callb printf
    leave
    halt
`

// programSources lists every guest program in registration order.
var programSources = []string{ringSrc, allocSrc, workerSrc, chainSrc, negoSrc}

// newImage assembles the benchmark's program image. Assembly is part of
// every repetition's set-up: a user builds the image for every cluster.
func newImage() *isa.Image {
	im := isa.NewImage()
	for _, src := range programSources {
		asm.MustAssemble(im, src)
	}
	return im
}
