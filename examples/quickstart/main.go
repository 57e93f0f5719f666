// Quickstart walks the library API end to end: mine one synthetic corpus
// video, register and index it, protect its clinical scenes, and search it
// by example as two users. README.md's "Quickstart: library API" section
// shows this code and exactly what it prints (TestQuickstartOutput).
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"classminer"
	"classminer/internal/synth"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	ctx := context.Background() // carries a trace span when there is one
	analyzer, err := classminer.NewAnalyzer(classminer.Options{})
	if err != nil {
		return err
	}
	lib := classminer.NewLibrary(nil) // the library indexes; it never mines

	script := synth.CorpusScript("laparoscopy", 0.5, 2003)
	video, err := synth.Generate(synth.DefaultConfig(), script, 2003)
	if err != nil {
		return err
	}
	res, err := analyzer.Analyze(video) // mines shots → groups → scenes → events
	if err != nil {
		return err
	}
	err = lib.AddResultCtx(ctx, res, "medicine") // registers the mined result
	if err != nil {
		return err
	}
	err = lib.BuildIndexCtx(ctx) // §6.2 hierarchical index (copy-on-write swap)
	if err != nil {
		return err
	}

	lib.Protect(classminer.Rule{Concept: "medicine/clinical operation",
		MinClearance: classminer.Clinician})

	fmt.Fprintln(w, res.Summary())
	query := res.Shots[0].Feature() // query by example
	for _, user := range []classminer.User{
		{Name: "visitor", Clearance: classminer.Public},
		{Name: "dr.lee", Clearance: classminer.Clinician},
	} {
		hits, stats, err := lib.SearchIntoCtx(ctx, nil, user, query, 10) // nil: allocate the hits
		if err != nil {
			return err
		}
		// stats holds the Eq. (24)/(25) cost counters; print them and the hits.
		fmt.Fprintf(w, "\n%s (%v): %d hits, %d float ops\n",
			user.Name, user.Clearance, len(hits), stats.FloatOps)
		for _, h := range hits {
			fmt.Fprintf(w, "  shot %3d  dist %.4f  %s\n",
				h.Entry.Shot.Index, h.Dist, h.Entry.Path[len(h.Entry.Path)-1])
		}
	}
	return nil
}
