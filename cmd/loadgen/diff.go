package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// diffCommand implements `loadgen diff a.json b.json`: one table per
// workload comparing b against the base a; exit status 1 when any
// end-to-end metric is worse by more than its bound.
func diffCommand(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: loadgen diff base.json new.json")
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err == nil && len(files[i].Sets) == 0 {
			err = fmt.Errorf("no result sets")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen diff: %s: %v\n", path, err)
			return 2
		}
	}
	fmt.Fprintf(w, "base %s (commit %s, seed %d)\nnew  %s (commit %s, seed %d)\n",
		args[0], files[0].Env.Commit, files[0].Seed, args[1], files[1].Env.Commit, files[1].Seed)
	if !printDiff(w, &files[0], &files[1], false) {
		return 1
	}
	return 0
}

// side summarises one file's values of one metric: the median over its sets
// and their spread (max-min over the median; 0 for a single set).
func side(f *resultFile, workload, metric string) (med, spread float64, ok bool) {
	var vals []float64
	for _, set := range f.Sets {
		if r := set[workload]; r != nil {
			if v, found := r.EndToEnd[metric]; found {
				vals = append(vals, v.Value)
			}
		}
	}
	if len(vals) == 0 {
		return 0, 0, false
	}
	med = median(vals) // sorts vals
	if med != 0 {
		spread = (vals[len(vals)-1] - vals[0]) / med
		if spread < 0 {
			spread = -spread
		}
	}
	return med, spread, true
}

// verdict judges new against base for one metric. worsening is the share of
// base by which new is worse (negative when better). With symmetric set (the
// agreement check of two runs of the same code) a difference in either
// direction beyond the bound counts.
func verdict(d metricDef, base, next, spread float64, symmetric bool) (worsening float64, v string) {
	if base != 0 {
		worsening = (next - base) / base
		if d.Better == "higher" {
			worsening = -worsening
		}
	}
	switch {
	case spread > d.Bound:
		return worsening, "unresolved"
	case worsening > d.Bound, symmetric && -worsening > d.Bound:
		return worsening, "worse"
	}
	return worsening, "ok"
}

// printDiff prints the tables and reports whether no row is worse.
func printDiff(w io.Writer, base, next *resultFile, symmetric bool) bool {
	ok := true
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n== %s ==\n  %-22s %-6s %14s %14s %18s %7s  %s\n",
			wl.Name, "metric", "unit", "base", "new", "new/base", "bound", "verdict")
		for _, d := range endToEnd {
			a, spreadA, okA := side(base, wl.Name, d.Name)
			b, spreadB, okB := side(next, wl.Name, d.Name)
			if !okA || !okB {
				fmt.Fprintf(w, "  %-22s %-6s %14s %14s %18s %7s  missing\n", d.Name, d.Unit, "-", "-", "-", "-")
				ok = false
				continue
			}
			ratio := "-"
			if a != 0 {
				ratio = fmt.Sprintf("%.4f (of %.4g)", b/a, a)
			}
			_, v := verdict(d, a, b, max(spreadA, spreadB), symmetric)
			if v == "worse" {
				ok = false
			}
			fmt.Fprintf(w, "  %-22s %-6s %14.4f %14.4f %18s %6.1f%%  %s\n", d.Name, d.Unit, a, b, ratio, d.Bound*100, v)
		}
	}
	return ok
}
