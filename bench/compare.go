package main

import (
	"fmt"
	"os"
)

// worsening returns by what share of the old value the new one is worse
// (negative when it is better), in the metric's own direction.
func worsening(def metricDef, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if def.better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// verdict judges one (workload, metric) pair: regressed when the new
// median is worse than the old by more than the bound, unresolved when it
// is not but either side's trials spread wider than the bound (so "no
// worse" cannot be told from noise), ok otherwise.
func verdict(def metricDef, old, new *result) string {
	switch {
	case new.Failed > old.Failed:
		return "regressed" // more operations fail: no timing makes up for that
	case worsening(def, old.Metrics[def.name].Value, new.Metrics[def.name].Value) > def.bound:
		return "regressed"
	case def.name != "setup_s" && (spread(old.Trials[def.name]) > def.bound || spread(new.Trials[def.name]) > def.bound):
		return "unresolved"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// documents and fails when any pair regressed.
func compareFiles(oldPath, newPath string) error {
	old, err := readDocument(oldPath)
	if err != nil {
		return err
	}
	cur, err := readDocument(newPath)
	if err != nil {
		return err
	}
	if old.Quick || cur.Quick {
		fmt.Fprintln(os.Stderr, "bench: warning: a -quick document is not comparable")
	}
	if old.Seconds != cur.Seconds || old.Env.GOMAXPROCS != cur.Env.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "bench: warning: settings differ (seconds %d vs %d, GOMAXPROCS %d vs %d)\n",
			old.Seconds, cur.Seconds, old.Env.GOMAXPROCS, cur.Env.GOMAXPROCS)
	}
	fmt.Printf("old: %s (%s)\nnew: %s (%s)\n", oldPath, old.Env.Commit, newPath, cur.Env.Commit)
	fmt.Printf("%-20s %-20s %14s %14s %18s %7s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	regressed := false
	for _, w := range workloads {
		a, b := old.find(w.name, 1), cur.find(w.name, 1)
		if a == nil || b == nil {
			fmt.Printf("%-20s missing from one document\n", w.name)
			continue
		}
		for _, def := range endToEnd {
			va, vb := a.Metrics[def.name].Value, b.Metrics[def.name].Value
			v := verdict(def, a, b)
			regressed = regressed || v == "regressed"
			ratio := fmt.Sprintf("%.4f of %.5g", vb/va, va) // every ratio with its base
			fmt.Printf("%-20s %-20s %14.6g %14.6g %18s %6.0f%%  %s\n",
				w.name, def.name, va, vb, ratio, 100*def.bound, v)
		}
		fmt.Printf("%-20s %-20s %14d %14d\n", w.name, "failed_ops", a.Failed, b.Failed)
	}
	if regressed {
		return errRegressed
	}
	return nil
}
