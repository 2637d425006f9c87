// Command dwbench regenerates the tables and figures of the paper's
// evaluation. With no arguments it runs everything in paper order;
// -fig selects one experiment; -quick shrinks sweeps for a fast pass.
//
//	dwbench             # all figures, full grids
//	dwbench -fig 8b     # just Figure 8(b)
//	dwbench -quick      # everything, reduced grids
//	dwbench -list       # available figure ids
//
// Wall-clock measurement of the engine and the server lives in
// perfbench (bash perfbench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"dimmwitted/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "figure id to run (e.g. 7a, 11, appA); empty = all")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast pass")
	list := flag.Bool("list", false, "list available figure ids")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Println(e.Name)
		}
		return
	}

	if *fig != "" {
		name := *fig
		if _, ok := experiments.Lookup(name); !ok {
			name = "fig" + name
		}
		drv, ok := experiments.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "dwbench: unknown figure %q (try -list)\n", *fig)
			os.Exit(1)
		}
		drv(*quick).Table.Fprint(os.Stdout)
		return
	}

	for _, e := range experiments.Registry() {
		e.Driver(*quick).Table.Fprint(os.Stdout)
	}
}
