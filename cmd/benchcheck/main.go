// benchcheck is the CI perf-regression gate: it holds every committed
// baseline <baseline-dir>/BENCH_<figure>.baseline.txt against the fresh
// report <current-dir>/BENCH_<figure>.txt that `pm2bench -report`
// wrote, and exits 1 on any breach. Each row carries its own gate
// (exact, ceiling, floor or info; see internal/bench/report.go), so
// this command knows no figure. A missing current report, a baseline
// row missing from it, or a gated current row the baseline lacks also
// fails the gate; a malformed file exits 2.
//
// Usage:
//
//	benchcheck <baseline-dir> <current-dir>
//	benchcheck ci .
package main

import (
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck <baseline-dir> <current-dir>")
		os.Exit(2)
	}
	ok, err := bench.Check(os.Stdout, os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchcheck: regression — see the rows above")
		os.Exit(1)
	}
	fmt.Println("benchcheck: every gated row holds")
}
