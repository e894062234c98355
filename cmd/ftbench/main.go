// Command ftbench runs the experiment suite (DESIGN.md E1-E24) and prints
// the result tables recorded in EXPERIMENTS.md.
//
//	ftbench                # full suite
//	ftbench -exp e7        # one experiment
//	ftbench -quick         # shrunken sweeps
//	ftbench -list          # show the experiment index
//	ftbench -json out.json # also write aggregated counters + quantiles
//	ftbench -obs :9464     # live /metrics while the suite runs
//	ftbench -exp e1 -detector swim        # ring experiments without the oracle
//	ftbench -exp e20 -quick               # SWIM scaling soak, CI sizes
//	ftbench -exp e21 -quick               # elastic shrink/respawn soak
//	ftbench -exp e22 -quick               # replication soak: transparent failover
//	ftbench -exp e23 -quick               # recovery forensics: traced phase decomposition
//	ftbench -exp e24 -quick               # durability soak: tail-acks, auto re-replication
//	ftbench -exp e1 -detector swim -agreement tree   # gossip detection + tree votes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/ftmpi"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	var (
		exp     = flag.String("exp", "", "run a single experiment (e1..e24)")
		quick   = flag.Bool("quick", false, "shrink sweeps for a fast pass")
		list    = flag.Bool("list", false, "list experiments and exit")
		seed    = flag.Int64("seed", 1, "seed for randomized failure schedules")
		jsonOut = flag.String("json", "", "write aggregated metrics JSON to this file (\"-\" = stdout)")
		obsAddr = flag.String("obs", "", "serve live /metrics for the world currently running")

		detMode    = flag.String("detector", "", "failure detection for the generic ring worlds: oracle|swim (\"\" = oracle; E19 and E20 always use swim)")
		swPeriod   = flag.Duration("swim-period", 0, "SWIM protocol period (0 = default; with -detector swim)")
		swIndirect = flag.Int("swim-indirect", 0, "SWIM indirect-probe fanout k (0 = default; with -detector swim)")
		agreeMode  = flag.String("agreement", "", "validate_all tree fan-out for the generic ring worlds: coordinator (every member a child of the lowest alive rank) | tree (two children per rank) (\"\" = coordinator)")
	)
	flag.Parse()

	if *list {
		for _, e := range workload.All() {
			fmt.Printf("%-4s %-45s (%s)\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	var toRun []workload.Experiment
	if *exp != "" {
		e, ok := workload.ByID(*exp)
		if !ok {
			fmt.Fprintln(os.Stderr, unknownExpErr(*exp))
			os.Exit(2)
		}
		toRun = []workload.Experiment{e}
	} else {
		toRun = workload.All()
	}

	opt := workload.Options{
		Quick: *quick, Seed: *seed,
		Detector:  *detMode,
		Swim:      ftmpi.SwimOptions{Period: *swPeriod, IndirectK: *swIndirect},
		Agreement: *agreeMode,
	}
	if *jsonOut != "" || *obsAddr != "" {
		opt.Collector = workload.NewCollector()
	}
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, opt.Collector.Source)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: obs endpoint: %v\n", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("observability endpoint: http://%s/metrics\n", srv.Addr())
	}
	start := time.Now()
	failed := 0
	for _, e := range toRun {
		fmt.Printf("---- %s: %s (%s) ----\n", e.ID, e.Title, e.PaperRef)
		tables, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
	}
	fmt.Printf("suite finished in %v (%d experiments, %d failed)\n",
		time.Since(start).Round(time.Millisecond), len(toRun), failed)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, opt.Collector); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: write json: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// unknownExpErr builds the diagnostic for an -exp value that matches no
// experiment: it names every valid identifier so the user does not need a
// second invocation with -list just to learn the id space.
func unknownExpErr(id string) string {
	all := workload.All()
	ids := make([]string, 0, len(all))
	for _, e := range all {
		ids = append(ids, e.ID)
	}
	return fmt.Sprintf("ftbench: unknown experiment %q (valid: %s; -list shows titles)",
		id, strings.Join(ids, ", "))
}

// writeJSON emits the collector aggregate to path ("-" = stdout).
func writeJSON(path string, c *workload.Collector) error {
	if path == "-" {
		return c.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
