// pm2load runs a registered program on a simulated PM2 cluster and prints
// its execution trace, like the paper's pm2load launcher ("info% pm2load
// example1" in Figure 8).
//
// Usage:
//
//	pm2load [flags] <program> [arg]
//
// Programs: p1 p2 p2r p3 p4 p4m worker pingpong heapjunk allocone
// (or a custom program assembled from -src file).
//
// Examples:
//
//	pm2load p4 1000                          # Figure 7/8
//	pm2load -mech relocate p2                # Figure 2
//	pm2load -warm-heap 65536 p4m 300         # Figure 9
//	pm2load -policy round-robin -balance 2000 -nodes 4 p4 1000
//	pm2load -gather delta -arbiter sharded -nodes 16 allocone 150000
//	pm2load -nodes 4 -fault crash:1@3000 -node 1 worker 30000
//	pm2load -nodes 4 -fault "partition:1-0@3000..9000;partition:1-2@3000..9000;partition:1-3@3000..9000" \
//	        -rpc-timeout auto allocone 150000
//	pm2load -checkpoint run.ckpt -checkpoint-at 500 p4 1000
//	pm2load -checkpoint run.ckpt -checkpoint-at 500 -balance 2000 p4 1000
//	pm2load -restore run.ckpt
//
// The cluster flags (-nodes, -dist, -policy, -gather, -arbiter, -fault,
// -rpc-timeout, -convoy) are bound by pm2.BindFlags, shared with
// pm2trace and pm2bench; a bad value exits 2 with a one-line message. -policy selects the placement policy (negotiation |
// round-robin | work-stealing); -mech selects the migration mechanism
// (iso | relocate); -gather the §4.4 bitmap-gather strategy (sequential
// | tree | delta); -arbiter the negotiation concurrency scheme (global |
// sharded). For compatibility, -policy also accepts the legacy values
// "iso" and "relocate" and treats them as -mech.
//
// -fault installs a fault plan: "crash:N@T" crashes node N at T µs of
// virtual time, "partition:A-B@T1..T2" cuts the A↔B link for the window
// (store-and-forward healing), "slow:NxF@T1..T2" multiplies node N's
// wire time by F; events compose with ";". If no -balance is given one
// is attached at 2000 µs, since failure detection rides the balancer's
// heartbeat rounds. -rpc-timeout arms the partial-failure deadline
// layer ("auto" derives it from the cost model, an integer sets it in
// µs): timed-out protocol waits retry or fail gracefully, and detection
// becomes suspicion-based — a live partitioned node is routed around,
// never evacuated, and rejoins on heal. -checkpoint/-checkpoint-at
// capture the cluster to a pm2ckpt file mid-run and continue (an
// attached balancer's round state rides along);
// -restore boots from such a file and runs it to completion, printing a
// trace byte-identical to the capturing run's (the checkpoint carries
// configuration and workload, so -restore takes no program argument and
// rejects structural flags).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/pm2"
)

func main() {
	clusterFlags := pm2.BindFlags(flag.CommandLine, pm2.Config{Nodes: 2, Distribution: "round-robin"})
	mech := flag.String("mech", "iso", `migration mechanism: "iso" or "relocate"`)
	balance := flag.Int64("balance", 0, "attach a load balancer with this period in virtual µs (0 = off)")
	node := flag.Int("node", 0, "node to start the program on")
	srcFile := flag.String("src", "", "assemble and register an extra program from this file")
	warmHeap := flag.Int("warm-heap", 0, "fill every other node's heap with N bytes of junk first (Figure 9)")
	stats := flag.Bool("stats", true, "print run statistics after the trace")
	ckptFile := flag.String("checkpoint", "", "write a pm2ckpt image of the run to this file at -checkpoint-at, then continue")
	ckptAt := flag.Int64("checkpoint-at", 0, "µs of virtual time to run before -checkpoint captures the cluster")
	restoreFile := flag.String("restore", "", "restore a pm2ckpt image and run it to completion (no program argument)")
	flag.Parse()

	if *restoreFile != "" {
		// A checkpoint carries its whole structural configuration and
		// workload; flags that would re-specify either are mistakes, not
		// requests.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "restore", "balance", "stats":
			default:
				fmt.Fprintf(os.Stderr, "pm2load: -%s does not apply with -restore (the checkpoint carries the configuration and workload)\n", f.Name)
				os.Exit(2)
			}
		})
		restoreRun(*restoreFile, *balance, *stats)
		return
	}

	// Legacy spelling: -policy iso|relocate named the mechanism.
	if policy := flag.Lookup("policy").Value.String(); policy == "iso" || policy == "relocate" {
		mechSet := false
		flag.Visit(func(f *flag.Flag) { mechSet = mechSet || f.Name == "mech" })
		if mechSet && *mech != policy {
			fmt.Fprintf(os.Stderr, "pm2load: -policy %s conflicts with -mech %s (use -mech for the mechanism, -policy for placement)\n", policy, *mech)
			os.Exit(2)
		}
		*mech = policy
		flag.Set("policy", "")
	}
	if *mech != "iso" && *mech != "relocate" {
		fmt.Fprintf(os.Stderr, "pm2load: unknown mechanism %q (want iso or relocate)\n", *mech)
		os.Exit(2)
	}
	cfg, err := clusterFlags()
	if err == nil {
		cfg.RelocationPolicy = *mech == "relocate"
		err = cfg.Validate()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2load: %v\n", err)
		os.Exit(2)
	}
	if *ckptFile != "" {
		switch {
		case *ckptAt <= 0:
			fmt.Fprintln(os.Stderr, "pm2load: -checkpoint needs -checkpoint-at <µs> to know when to capture")
			os.Exit(2)
		case cfg.Faults != "":
			fmt.Fprintln(os.Stderr, "pm2load: -checkpoint does not compose with -fault (crash events are scheduled closures a checkpoint cannot carry)")
			os.Exit(2)
		}
	}
	// Failure detection rides the balancer's heartbeat rounds: a fault
	// plan without a balancer would crash the node and then never notice.
	if cfg.Faults != "" && *balance == 0 {
		*balance = 2000
	}
	if *node < 0 || *node >= cfg.Nodes {
		fmt.Fprintf(os.Stderr, "pm2load: -node %d outside the %d-node cluster\n", *node, cfg.Nodes)
		os.Exit(2)
	}

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: pm2load [flags] <program> [arg]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	prog := flag.Arg(0)
	arg := uint32(0)
	if flag.NArg() > 1 {
		v, err := strconv.ParseUint(flag.Arg(1), 0, 32)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pm2load: bad argument %q: %v\n", flag.Arg(1), err)
			os.Exit(2)
		}
		arg = uint32(v)
	}

	sys := pm2.NewSystem()
	sys.RegisterExamples()
	if *srcFile != "" {
		src, err := os.ReadFile(*srcFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pm2load: %v\n", err)
			os.Exit(1)
		}
		if err := sys.Register(string(src)); err != nil {
			fmt.Fprintf(os.Stderr, "pm2load: %v\n", err)
			os.Exit(1)
		}
	}

	cl := sys.Boot(cfg)
	if _, ok := cl.Internal().Image().EntryOf(prog); !ok {
		fmt.Fprintf(os.Stderr, "pm2load: unknown program %q\n", prog)
		os.Exit(2)
	}
	if *balance > 0 {
		cl.AttachBalancer(*balance)
	}

	if *warmHeap > 0 {
		for i := 0; i < cfg.Nodes; i++ {
			if i != *node {
				cl.Spawn(i, "heapjunk", uint32(*warmHeap))
			}
		}
		cl.Run()
	}

	cl.Spawn(*node, prog, arg)
	if *ckptFile != "" {
		// Run to the capture instant, write the image, then resume the
		// same cluster: the full trace printed below is byte-identical to
		// what `-restore` produces from the written file.
		cl.RunForMicros(*ckptAt)
		data, err := cl.CheckpointBytes()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pm2load: checkpoint: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*ckptFile, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pm2load: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "-- checkpoint: %d bytes to %s at t=%dµs\n", len(data), *ckptFile, *ckptAt)
		cl.Resume()
	}
	cl.Run()

	for _, l := range cl.Output() {
		fmt.Println(l)
	}
	if *stats {
		st := cl.Stats()
		fmt.Fprintf(os.Stderr, "\n-- %d node(s), policy %s, mech %s, dist %s, gather %s, arbiter %s\n", cfg.Nodes, cfg.Policy, *mech, cfg.Distribution, cfg.Gather, cfg.Arbiter)
		fmt.Fprintf(os.Stderr, "-- virtual time %.1fµs, %d migration(s) (avg %.1fµs), %d negotiation(s)\n",
			st.VirtualMicros, st.Migrations, st.AvgMigrationMicros, st.Negotiations)
	}
	if err := cl.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pm2load: invariant violation: %v\n", err)
		os.Exit(1)
	}
}

// restoreRun boots a cluster from a pm2ckpt image and runs it to
// completion. The checkpoint carries the structural configuration and
// the parked workload, so the only inputs are the file and the optional
// balancer period. The printed trace includes the pre-capture lines the
// checkpoint recorded — it is byte-identical to the capturing run's.
func restoreRun(path string, balance int64, stats bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2load: %v\n", err)
		os.Exit(1)
	}
	sys := pm2.NewSystem()
	sys.RegisterExamples()
	cl, err := sys.Restore(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pm2load: %s: %v\n", path, err)
		os.Exit(1)
	}
	if balance > 0 {
		cl.AttachBalancer(balance)
	}
	cl.Run()
	for _, l := range cl.Output() {
		fmt.Println(l)
	}
	if stats {
		st := cl.Stats()
		fmt.Fprintf(os.Stderr, "\n-- restored from %s\n", path)
		fmt.Fprintf(os.Stderr, "-- virtual time %.1fµs, %d migration(s) (avg %.1fµs), %d negotiation(s)\n",
			st.VirtualMicros, st.Migrations, st.AvgMigrationMicros, st.Negotiations)
	}
	if err := cl.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pm2load: invariant violation: %v\n", err)
		os.Exit(1)
	}
}
