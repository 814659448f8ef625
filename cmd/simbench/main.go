// Command simbench runs the simnet capacity sweep: the PMS Fast
// Ethernet and Tanaka kernel-bypass GbE interconnect models at
// P=64..1024, weak and strong scaling, for the communication skeleton
// and the live pseudospectral solvers. It prints virtual seconds per
// step, parallel efficiency and the host seconds each cell took.
//
// -out writes the result as the BENCH_simnet.json baseline.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"nektar/internal/bench"
	"nektar/internal/cliutil"
)

func main() {
	out := flag.String("out", "", "write the result as a BENCH_simnet.json baseline to this file")
	prof := cliutil.ProfileFlags(flag.CommandLine)
	flag.Parse()

	if err := prof.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(2)
	}
	res, tbl, err := bench.RunScalebench(bench.PaperScalebench)
	if err != nil {
		log.Fatal(err)
	}
	tbl.Write(os.Stdout)
	if err := prof.Stop(); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := bench.WriteBaseline(*out, res); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
}
