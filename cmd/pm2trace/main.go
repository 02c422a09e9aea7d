// pm2trace runs a program on a simulated cluster and dumps detailed
// runtime information: the execution trace with virtual timestamps, the
// per-node slot-layer statistics, and the cluster-wide measurements. It is
// the debugging companion to pm2load.
//
// Usage:
//
//	pm2trace [flags] <program> [arg]
//	pm2trace record [flags] -o <file>   # record a serving workload trace
//	pm2trace replay [flags] -i <file>   # replay it byte-identically
//
// A trace file is a sealed pm2serve-trace v3 image: a magic line, the
// trace as one JSON document and an FNV-1a digest line, the format of
// pm2ckpt images too. record -checkpoint <ckpt> binds the trace to a
// pm2ckpt image (its digest lands in the trace's CkptDigest member);
// replay of such a trace requires -checkpoint with the same image and
// continues it from its captured instant instead of a fresh boot.
//
// The cluster flags (-nodes, -dist, -policy, -gather, -arbiter, -fault,
// -rpc-timeout, -convoy) are the ones pm2.BindFlags binds for every
// front end. -fault installs a fault plan (crash /
// partition / slow events) and drives millisecond heartbeat rounds past
// its horizon; -rpc-timeout arms the partial-failure deadline layer
// ("auto" or µs). The summary then reports RPC timeouts, suspicions,
// rejoins and evacuations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	ipm2 "repro/internal/pm2"
	"repro/internal/scenario"
	"repro/internal/scenario/serve"
	"repro/internal/simtime"
	"repro/pm2"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			recordCmd(os.Args[2:])
			return
		case "replay":
			replayCmd(os.Args[2:])
			return
		}
	}
	clusterFlags := pm2.BindFlags(flag.CommandLine, pm2.Config{Nodes: 2, Distribution: "round-robin"})
	node := flag.Int("node", 0, "starting node")
	live := flag.Bool("live", false, "print trace lines as they are produced")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: pm2trace [flags] <program> [arg]")
		os.Exit(2)
	}
	prog := flag.Arg(0)
	arg := uint32(0)
	if flag.NArg() > 1 {
		v, err := strconv.ParseUint(flag.Arg(1), 0, 32)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pm2trace: bad arg: %v\n", err)
			os.Exit(2)
		}
		arg = uint32(v)
	}
	cfg, err := clusterFlags()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2trace: %v\n", err)
		os.Exit(2)
	}
	if *node < 0 || *node >= cfg.Nodes {
		fmt.Fprintf(os.Stderr, "pm2trace: -node %d outside the %d-node cluster\n", *node, cfg.Nodes)
		os.Exit(2)
	}
	cfg.RecordAllocations = true
	sys := pm2.NewSystem()
	sys.RegisterExamples()
	c := sys.Boot(cfg).Internal()
	if _, ok := c.Image().EntryOf(prog); !ok {
		fmt.Fprintf(os.Stderr, "pm2trace: unknown program %q\n", prog)
		os.Exit(2)
	}
	if *live {
		c.Trace().SetWriter(os.Stdout)
	}
	if st := c.FaultState(); st != nil {
		// Failure detection rides heartbeat rounds pm2trace has no
		// balancer to drive: tick every millisecond until two rounds past
		// the plan's last event, enough to declare any crash and clear
		// any healed suspicion.
		var horizon simtime.Time
		for _, ev := range st.Plan().Events {
			if ev.At > horizon {
				horizon = ev.At
			}
			if ev.Until > horizon {
				horizon = ev.Until
			}
		}
		for t := simtime.Millisecond; t <= horizon+2*simtime.Millisecond; t += simtime.Millisecond {
			c.Engine().At(t, c.HeartbeatTick)
		}
	}
	c.Spawn(*node, prog, arg)
	c.Run(0)

	if !*live {
		for _, l := range c.Trace().Lines() {
			fmt.Println(l)
		}
	}

	fmt.Printf("\n== run summary (virtual time %.1f µs, %d engine events)\n",
		c.Now().Micros(), c.Engine().Steps())
	st := c.Stats()
	fmt.Printf("migrations:   %d\n", st.Migrations)
	for i, l := range st.MigrationLatencies {
		fmt.Printf("  #%d: %v\n", i+1, l)
	}
	fmt.Printf("negotiations: %d\n", st.Negotiations)
	for i, l := range st.NegotiationLatencies {
		fmt.Printf("  #%d: %v\n", i+1, l)
	}
	fmt.Printf("network:      %d messages, %d bytes\n", st.Net.Messages, st.Net.Bytes)
	if cfg.Faults != "" || cfg.RPCTimeoutMicros != 0 {
		fmt.Printf("faults:       %d rpc timeout(s), %d suspicion(s), %d rejoin(s), %d evacuation(s)\n",
			st.RPCTimeouts, st.Suspicions, st.Rejoins, st.Evacuations)
	}

	fmt.Printf("\n== per-node state\n")
	for i := 0; i < c.Nodes(); i++ {
		n := c.Node(i)
		ss := n.Slots().Stats()
		created, finished, faulted, dispatches, instrs := n.Scheduler().Stats()
		fmt.Printf("node %d: slots owned %5d (cached %d)  acquires %3d  releases %3d  mmaps %3d  cache-hits %3d\n",
			i, n.Slots().OwnedFree(), n.Slots().CachedSlots(),
			ss.Acquired, ss.Released, ss.Mmaps, ss.CacheHits)
		fmt.Printf("         threads: created %d finished %d faulted %d; %d dispatches, %d instructions\n",
			created, finished, faulted, dispatches, instrs)
		fmt.Printf("         memory: %d bytes mapped; heap brk +%d KB; malloc/free %s\n",
			n.Space().MappedBytes(), (n.Heap().Brk()-0x0200_0000)/1024, heapCounts(n))
	}

	if samples := c.AllocSamples(); len(samples) > 0 {
		fmt.Printf("\n== allocations (%d)\n", len(samples))
		show := samples
		if len(show) > 12 {
			show = samples[:12]
		}
		for _, s := range show {
			kind := "malloc   "
			if s.Iso {
				kind = "isomalloc"
			}
			fmt.Printf("  node%d %s %8d B  %10v  ok=%v\n", s.Node, kind, s.Size, s.Latency, s.OK)
		}
		if len(samples) > len(show) {
			fmt.Printf("  ... %d more\n", len(samples)-len(show))
		}
	}

	if err := c.CheckInvariants(); err != nil {
		fmt.Printf("\nINVARIANT VIOLATION: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\ninvariants: ok\n")
}

func heapCounts(n *ipm2.Node) string {
	a, f := n.Heap().Counts()
	return fmt.Sprintf("%d/%d", a, f)
}

// loadCheckpoint reads and decodes a pm2ckpt file, exiting with a
// diagnostic on any failure — shared by record (digest binding) and
// replay (restore source).
func loadCheckpoint(path string) *ipm2.Checkpoint {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2trace: %v\n", err)
		os.Exit(1)
	}
	ck, err := ipm2.DecodeCheckpoint(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2trace: %s: %v\n", path, err)
		os.Exit(1)
	}
	return ck
}

// recordCmd synthesizes the derived serving workload and writes it as a
// versioned trace file: the harness parameters plus the fully-expanded
// request stream, digest-sealed. The file is self-contained — replaying
// it never re-synthesizes, so it stays byte-identical even if the
// generator defaults change later.
func recordCmd(args []string) {
	fs := flag.NewFlagSet("pm2trace record", flag.ExitOnError)
	clusterFlags := pm2.BindFlags(fs, pm2.Config{Nodes: 4})
	out := fs.String("o", "", "output trace file (required)")
	seed := fs.Uint64("seed", 1, "workload seed")
	scale := fs.Float64("scale", 1, "arrival-rate multiplier")
	ckpt := fs.String("checkpoint", "", "pm2ckpt file the trace continues from (binds its digest into the trace)")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "usage: pm2trace record -o <file> [-nodes n] [-seed s] [-policy p] [-gather g] [-arbiter a] [-scale x] [-checkpoint f]")
		os.Exit(2)
	}
	// A trace records only the cluster size, placement, gather and
	// arbiter; the other cluster flags have nowhere to go.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "dist", "fault", "rpc-timeout", "convoy":
			fmt.Fprintf(os.Stderr, "pm2trace: -%s does not apply to record\n", f.Name)
			os.Exit(2)
		}
	})
	// The binder canonicalizes the harness parameters exactly as a live
	// run would, so the recorded parameters match the replayed run's.
	cfg, err := clusterFlags()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2trace: %v\n", err)
		os.Exit(2)
	}
	sp := serve.DeriveSpec(*seed, cfg.Nodes)
	sp.RateScale = *scale
	reqs, err := sp.Synthesize(cfg.Nodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2trace: %v\n", err)
		os.Exit(1)
	}
	tr := &serve.Trace{
		Policy:   cfg.Policy,
		Nodes:    cfg.Nodes,
		Seed:     sp.Seed,
		Gather:   cfg.Gather,
		Arbiter:  cfg.Arbiter,
		Requests: reqs,
	}
	if *ckpt != "" {
		ck := loadCheckpoint(*ckpt)
		if ck.Nodes != cfg.Nodes {
			fmt.Fprintf(os.Stderr, "pm2trace: checkpoint has %d nodes, recording asks for %d\n", ck.Nodes, cfg.Nodes)
			os.Exit(2)
		}
		tr.CkptDigest = ck.Digest()
	}
	if err := os.WriteFile(*out, tr.Encode(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "pm2trace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("recorded %d requests to %s (digest %016x)\n", len(tr.Requests), *out, tr.Digest())
}

// replayCmd re-runs a recorded serving trace through the harness —
// digest-verified on decode — and prints the canonical run trace plus
// the per-cohort SLO summary. Two replays of the same file, and a
// replay versus the live run it was recorded from, are byte-identical.
func replayCmd(args []string) {
	fs := flag.NewFlagSet("pm2trace replay", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (required)")
	ckpt := fs.String("checkpoint", "", "pm2ckpt file to restore before replaying (required when the trace was recorded against one)")
	quiet := fs.Bool("q", false, "suppress the canonical run trace, print only the SLO summary")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "usage: pm2trace replay -i <file> [-checkpoint f] [-q]")
		os.Exit(2)
	}

	data, err := os.ReadFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2trace: %v\n", err)
		os.Exit(1)
	}
	tr, err := serve.Decode(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2trace: %v\n", err)
		os.Exit(1)
	}

	spec := scenario.Spec{
		Policy:  tr.Policy,
		Nodes:   tr.Nodes,
		Seed:    tr.Seed,
		Gather:  tr.Gather,
		Arbiter: tr.Arbiter,
	}
	var res *scenario.Result
	switch {
	case tr.CkptDigest != 0:
		// The trace is bound to a checkpoint image: replay must continue
		// that exact capture, so the digest recorded at record time has
		// to match the image presented now.
		if *ckpt == "" {
			fmt.Fprintf(os.Stderr, "pm2trace: trace %s was recorded against checkpoint %016x; pass it with -checkpoint\n", *in, tr.CkptDigest)
			os.Exit(2)
		}
		ck := loadCheckpoint(*ckpt)
		if got := ck.Digest(); got != tr.CkptDigest {
			fmt.Fprintf(os.Stderr, "pm2trace: checkpoint digest mismatch: trace wants %016x, %s is %016x\n", tr.CkptDigest, *ckpt, got)
			os.Exit(1)
		}
		res, err = scenario.ReplayFromCheckpoint(spec, tr.Requests, ck)
	case *ckpt != "":
		fmt.Fprintf(os.Stderr, "pm2trace: trace %s replays on a fresh boot; -checkpoint does not apply\n", *in)
		os.Exit(2)
	default:
		res, err = scenario.Replay(spec, tr.Requests)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2trace: %v\n", err)
		os.Exit(1)
	}
	if err := res.Verify(); err != nil {
		fmt.Fprintf(os.Stderr, "pm2trace: replay failed verification: %v\n", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Print(res.TraceString())
	}
	fmt.Printf("\n== replay summary (%d requests, virtual time %.1f µs)\n", len(tr.Requests), res.VirtualMicros)
	fmt.Printf("%-8s %8s %12s %12s %12s %12s\n",
		"cohort", "requests", "place p50µs", "place p99µs", "e2e p50µs", "e2e p99µs")
	for _, s := range res.CohortSLOs() {
		fmt.Printf("%-8s %8d %12.1f %12.1f %12.1f %12.1f\n",
			s.Cohort, s.Requests, s.Placement.P50, s.Placement.P99, s.EndToEnd.P50, s.EndToEnd.P99)
	}
}
