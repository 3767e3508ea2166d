// TPC-H sub-core balancing: run database queries whose warp-specialized
// kernels put one long-running warp in every four, and show how hashed
// sub-core assignment (SRR / Shuffle) recovers the throughput that
// round-robin placement loses — including the coefficient-of-variation
// balance metric of Fig. 17.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/exp"
)

func main() {
	compressed := flag.Bool("compressed", false, "use the snappy-compressed database variant")
	queries := flag.Int("n", 6, "number of queries to run")
	flag.Parse()

	suite := "tpch-u"
	if *compressed {
		suite = "tpch-c"
	}
	apps, err := repro.AppsBySuite(suite)
	if err != nil {
		log.Fatal(err)
	}
	if *queries < len(apps) {
		apps = apps[:*queries]
	}

	fmt.Printf("suite: %s (one long-running warp per four; Fig 15/16/17)\n\n", suite)
	fmt.Printf("%-10s %9s %9s %9s %8s %8s\n", "query", "RR-cov", "SRR-cov", "Shuf-cov", "SRR-spd", "Shuf-spd")
	var srrSum, shufSum float64
	for _, app := range apps {
		// Fig 15/16's device: the 4-SM scaled V100 with the per-SM memory
		// bandwidth share the paper gives TPC-H (20 SMs behind the full
		// device memory system).
		base := exp.DeviceFor(exp.Base(), app)
		srr := base.WithAssign(repro.AssignSRR)
		shuffle := base.WithAssign(repro.AssignShuffle)
		rBase, err := repro.Run(base, app)
		if err != nil {
			log.Fatal(err)
		}
		rSRR, err := repro.Run(srr, app)
		if err != nil {
			log.Fatal(err)
		}
		rShuf, err := repro.Run(shuffle, app)
		if err != nil {
			log.Fatal(err)
		}
		sSRR := float64(rBase.Cycles) / float64(rSRR.Cycles)
		sShuf := float64(rBase.Cycles) / float64(rShuf.Cycles)
		srrSum += sSRR
		shufSum += sShuf
		fmt.Printf("%-10s %9.2f %9.2f %9.2f %7.2fx %7.2fx\n",
			app.Name, rBase.IssueCoV(), rSRR.IssueCoV(), rShuf.IssueCoV(), sSRR, sShuf)
	}
	n := float64(len(apps))
	fmt.Printf("\naverage speedup: SRR %.2fx, Shuffle %.2fx\n", srrSum/n, shufSum/n)
	fmt.Printf("(paper: SRR %+.1f%% uncompressed / %+.1f%% compressed)\n",
		(exp.Paper("fig16", "srr")-1)*100, (exp.Paper("fig15", "srr")-1)*100)
}
