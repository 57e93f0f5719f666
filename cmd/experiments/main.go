// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic corpus, printing the same rows and
// series the paper reports.
//
// Usage:
//
//	experiments [-exp all|fig5|fig8|fig12|fig13|table1|sec62|fig14|fig15] [-scale 1.0] [-seed 2003]
//
// A scale that is not > 0, or an unknown experiment, is an error: nothing
// runs, and the command exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"classminer/internal/core"
	"classminer/internal/eval"
	"classminer/internal/synth"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: all, fig5, fig8, fig12, fig13, table1, sec62, fig14, fig15")
	scale := flag.Float64("scale", 1.0, "corpus scale (> 0; 1.0 = paper-shaped corpus)")
	seed := flag.Int64("seed", 2003, "corpus seed")
	flag.Parse()

	if err := run(*exp, *scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run checks its arguments, then runs the experiments exp names (a comma
// list, or "all") in order, printing each one's rows.
func run(exp string, scale float64, seed int64) error {
	// eval.CorpusConfig and synth.CorpusScript read a scale <= 0 as 1, which
	// would print the full-size corpus's rows for a scale nobody asked for.
	if !(scale > 0) {
		return fmt.Errorf("-scale %v: want > 0", scale)
	}
	cfg := eval.CorpusConfig{Scale: scale, Seed: seed}
	runners := map[string]func(eval.CorpusConfig) error{
		"fig5":   runFig5,
		"fig8":   runFig8,
		"fig12":  runFig12And13,
		"fig13":  runFig12And13,
		"table1": runTable1,
		"sec62":  runSec62,
		"fig14":  runFig14And15,
		"fig15":  runFig14And15,
	}
	ids := []string{"fig5", "fig8", "fig12", "table1", "sec62", "fig14"}
	if exp != "all" {
		ids = nil
		for _, id := range strings.Split(exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := runners[id]; !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		if err := runners[id](cfg); err != nil {
			return fmt.Errorf("experiment %s failed: %w", id, err)
		}
	}
	return nil
}

func runFig5(cfg eval.CorpusConfig) error {
	rep, err := eval.RunShotDetection(cfg, "")
	if err != nil {
		return err
	}
	fmt.Printf("== Fig. 5: shot detection with locally adaptive thresholds (%s) ==\n", rep.Video)
	fmt.Printf("true cuts %d, detected %d, matched %d  (recall %.2f, precision %.2f)\n",
		rep.TrueCuts, rep.Detected, rep.Matched, rep.Recall, rep.Precision)
	// A coarse ASCII rendition of the frame-difference series with the
	// adaptive threshold, around the first detected cut.
	if len(rep.Trace.Cuts) > 0 {
		c := rep.Trace.Cuts[0]
		lo, hi := c-8, c+8
		if lo < 0 {
			lo = 0
		}
		if hi > len(rep.Trace.Diffs) {
			hi = len(rep.Trace.Diffs)
		}
		fmt.Println("frame   diff    threshold")
		for t := lo; t < hi; t++ {
			mark := ""
			if containsInt(rep.Trace.Cuts, t+1) {
				mark = "  <- cut"
			}
			fmt.Printf("%5d  %.4f   %.4f%s\n", t, rep.Trace.Diffs[t], rep.Trace.Thresholds[t], mark)
		}
	}
	fmt.Println()
	return nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func runFig8(cfg eval.CorpusConfig) error {
	fmt.Println("== Fig. 8: qualitative scene detection by type ==")
	analyzer, err := core.NewAnalyzer(core.Options{SkipEvents: true})
	if err != nil {
		return err
	}
	script := synth.CorpusScript(synth.CorpusNames()[0], cfg.Scale, cfgSeed(cfg))
	v, err := synth.Generate(synth.DefaultConfig(), script, cfgSeed(cfg))
	if err != nil {
		return err
	}
	res, err := analyzer.Analyze(v)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d true scenes, %d detected scenes\n", v.Name, len(v.Truth.Scenes), len(res.Scenes))
	for _, sc := range res.Scenes {
		first, last := sc.FrameSpan()
		kind := "(straddles boundary)"
		if ti := v.Truth.SceneAt(first); ti >= 0 && ti == v.Truth.SceneAt(last-1) {
			kind = v.Truth.Scenes[ti].Event.String()
		}
		fmt.Printf("  scene %2d: frames [%5d,%5d) %2d shots  true type: %s\n",
			sc.Index, first, last, sc.ShotCount(), kind)
	}
	fmt.Println()
	return nil
}

func runFig12And13(cfg eval.CorpusConfig) error {
	rows, err := eval.RunSceneDetection(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 12: scene detection precision (Eq. 20) ==")
	fmt.Println("method            precision   (paper: A 0.65 > B ~0.61 > C ~0.575)")
	for _, r := range rows {
		fmt.Printf("%-16s  %.3f  (%d/%d scenes pure)\n", r.Method, r.Precision, r.Right, r.Total)
	}
	fmt.Println()
	fmt.Println("== Fig. 13: compression rate factor CRF (Eq. 21) ==")
	fmt.Println("method            CRF      (paper: A 0.086 highest; C lowest)")
	for _, r := range rows {
		fmt.Printf("%-16s  %.3f  (%d scenes / %d shots)\n", r.Method, r.CRF, r.Total, r.Shots)
	}
	fmt.Println()
	return nil
}

func runTable1(cfg eval.CorpusConfig) error {
	rows, err := eval.RunEventMining(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Table 1: video event mining ==")
	fmt.Println("event               SN   DN   TN    PR    RE   (paper avg: 0.72 / 0.71)")
	for _, r := range rows {
		fmt.Printf("%-18s %4d %4d %4d  %.2f  %.2f\n", r.Event, r.SN, r.DN, r.TN, r.PR, r.RE)
	}
	fmt.Println()
	return nil
}

func runSec62(cfg eval.CorpusConfig) error {
	// Sweep database sizes to expose the scaling of Eq. (24) vs Eq. (25);
	// sizes beyond the corpus clamp to it.
	rows, err := eval.RunIndexCost(cfg, []int{64, 128, 256, 1 << 20}, 30)
	if err != nil {
		return err
	}
	fmt.Println("== §6.2: cluster-based indexing vs flat scan (Eqs. 24–25) ==")
	fmt.Println("N       flat float-ops  hier float-ops  ratio   flat µs  hier µs  candidates(flat/hier)  top-agree")
	for _, r := range rows {
		ratio := float64(r.FlatFloatOps) / float64(max(r.HierFloatOps, 1))
		fmt.Printf("%-6d  %14d  %14d  %5.1fx  %7d  %7d  %7d/%-7d  %.2f\n",
			r.N, r.FlatFloatOps, r.HierFloatOps, ratio,
			r.FlatNanos/1000, r.HierNanos/1000, r.FlatCandidates, r.HierCandidates, r.TopAgree)
	}
	fmt.Println()
	return nil
}

func runFig14And15(cfg eval.CorpusConfig) error {
	scores, fcrs, err := eval.RunSkimStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Fig. 14: scalable skimming viewer scores (simulated panel) ==")
	fmt.Println("level   Q1-topic  Q2-scenario  Q3-concise   (paper: level 3 is the knee)")
	for _, s := range scores {
		fmt.Printf("%5d   %8.2f  %11.2f  %10.2f\n", s.Level, s.Q1, s.Q2, s.Q3)
	}
	fmt.Println()
	fmt.Println("== Fig. 15: frame compression ratio per skim level ==")
	fmt.Println("level   FCR     (paper: level 4 ~= 0.10)")
	for _, f := range fcrs {
		fmt.Printf("%5d   %.3f\n", f.Level, f.FCR)
	}
	fmt.Println()
	return nil
}

func cfgSeed(c eval.CorpusConfig) int64 {
	if c.Seed == 0 {
		return 2003
	}
	return c.Seed
}
