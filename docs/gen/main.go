package main

import (
	"fmt"
	"os"

	"repro/internal/workloads"
)

func main() {
	f, err := os.Create("docs/WORKLOADS.md")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err, "(run from the repository root)")
		os.Exit(1)
	}
	defer f.Close()
	fmt.Fprintln(f, "# Workload catalog")
	fmt.Fprintln(f)
	fmt.Fprintln(f, "The synthetic evaluation set: 112 applications across 8 suites")
	fmt.Fprintln(f, "(Section V of the paper; see `internal/workloads` for the per-suite")
	fmt.Fprintln(f, "generator parameters and DESIGN.md §2 for the substitution rationale).")
	fmt.Fprintln(f, "Regenerate with `go run ./docs/gen`.")
	suites, err := workloads.Suites()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(1)
	}
	for _, suite := range suites {
		apps, err := workloads.BySuite(suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(f, "\n## %s (%d apps)\n\n", suite, len(apps))
		fmt.Fprintln(f, "| name | kernels | dynamic instructions | Table III sensitive | RF-sensitive |")
		fmt.Fprintln(f, "|---|---|---|---|---|")
		for _, a := range apps {
			fmt.Fprintf(f, "| %s | %d | %d | %v | %v |\n",
				a.Name, len(a.Kernels), a.Instructions(), a.Sensitive, a.RFSensitive)
		}
	}
}
