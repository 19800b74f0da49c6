// Command univibench regenerates the tables and figures of the UniviStor
// paper's evaluation (CLUSTER'18, §III) on the simulated cluster.
//
// Usage:
//
//	univibench -fig fig6a                 # one figure at paper scale
//	univibench -all -quick                # every figure, laptop scale
//	univibench -fig fig9 -scales 64,512   # custom process counts
//	univibench -list                      # show available figures
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"univistor/internal/bench"
)

func main() {
	var (
		fig     = flag.String("fig", "", "figure id to regenerate (see -list)")
		all     = flag.Bool("all", false, "regenerate every figure and ablation")
		quick   = flag.Bool("quick", false, "laptop-scale sweep (small scales, small data)")
		scales  = flag.String("scales", "", "comma-separated process counts (overrides default sweep)")
		verbose = flag.Bool("v", false, "print progress per data point")
		list    = flag.Bool("list", false, "list available figure ids")
		traceTo = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto) of each run to this path (last run wins)")
		smoke   = flag.Bool("chaos-smoke", false, "run every figure with fault injection armed and sweep all invariants; exit 1 on any violation")
		spec    = flag.String("chaos-spec", "", "chaos spec for -chaos-smoke (default: the built-in non-destructive schedule)")
	)
	flag.Parse()

	if *list {
		fmt.Println("available figures and ablations:")
		for _, id := range bench.IDs() {
			fmt.Printf("  %s\n", id)
		}
		return
	}

	o := bench.DefaultOptions()
	if *quick {
		o = bench.QuickOptions()
	}
	if *scales != "" {
		var ss []int
		for _, tok := range strings.Split(*scales, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "univibench: bad scale %q\n", tok)
				os.Exit(2)
			}
			ss = append(ss, n)
		}
		o.Scales = ss
	}
	if *verbose {
		o.Progress = os.Stderr
	}
	o.TracePath = *traceTo

	switch {
	case *smoke:
		results, err := bench.ChaosSmoke(o, *spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "univibench: %v\n", err)
			os.Exit(2)
		}
		bad := 0
		for _, r := range results {
			faults, sweeps, violations := r.Totals()
			fmt.Printf("%-8s stacks=%d faults=%d sweeps=%d violations=%d\n",
				r.Fig, len(r.Reports), faults, sweeps, violations)
			for _, rep := range r.Reports {
				for _, v := range rep.Violations {
					fmt.Printf("  VIOLATION [%s]: %s\n", rep.Spec, v)
					bad++
				}
			}
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "univibench: chaos smoke found %d invariant violation(s)\n", bad)
			os.Exit(1)
		}
		fmt.Println("chaos smoke: all invariants held on every workload")
	case *all:
		for _, r := range bench.All(o) {
			r.Print(os.Stdout)
			fmt.Println()
		}
	case *fig != "":
		f, ok := bench.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "univibench: unknown figure %q; try -list\n", *fig)
			os.Exit(2)
		}
		f(o).Print(os.Stdout)
	default:
		fmt.Fprintln(os.Stderr, "univibench: need -fig <id>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}
}
