// Accesscontrol demonstrates the §2 hierarchical access-control model: the
// same library answers the same query differently per user — clinical
// material is hidden from low-clearance subjects while the deepest rule
// carves exceptions.
package main

import (
	"context"
	"fmt"
	"log"

	"classminer"
	"classminer/internal/synth"
)

func main() {
	analyzer, err := classminer.NewAnalyzer(classminer.Options{})
	if err != nil {
		log.Fatal(err)
	}
	library := classminer.NewLibrary(nil)
	script := synth.CorpusScript("laparoscopy", 0.3, 41)
	video, err := synth.Generate(synth.DefaultConfig(), script, 41)
	if err != nil {
		log.Fatal(err)
	}
	// Mining and indexing are separate jobs: the analyzer mines, the
	// library registers what it mined.
	res, err := analyzer.Analyze(video)
	if err != nil {
		log.Fatal(err)
	}
	if err := library.AddResultCtx(context.Background(), res, "medicine"); err != nil {
		log.Fatal(err)
	}
	if err := library.BuildIndex(); err != nil {
		log.Fatal(err)
	}

	// Protection rules over the concept hierarchy: all of medical
	// education needs a student account; clinical operations need a
	// clinician; dialogs are deliberately opened back up (deepest wins).
	library.Protect(classminer.Rule{Concept: "medical education", MinClearance: classminer.Student})
	library.Protect(classminer.Rule{Concept: "medicine/clinical operation", MinClearance: classminer.Clinician})
	library.Protect(classminer.Rule{Concept: "medicine/dialog", MinClearance: classminer.Public})

	users := []classminer.User{
		{Name: "visitor", Clearance: classminer.Public},
		{Name: "med-student", Clearance: classminer.Student},
		{Name: "dr-garcia", Clearance: classminer.Clinician},
	}
	result := library.Video("laparoscopy").Result
	query := result.Shots[len(result.Shots)/2].Feature()
	for _, u := range users {
		hits, stats, err := library.SearchIntoCtx(context.Background(), nil, u, query, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s (%v): %2d hits after filtering (index compared %d candidates)\n",
			u.Name, u.Clearance, len(hits), stats.Candidates)
		for _, kind := range []classminer.EventKind{classminer.EventClinicalOperation, classminer.EventDialog} {
			refs := library.ScenesByEvent(u, kind)
			fmt.Printf("              %-20v -> %d scenes visible\n", kind, len(refs))
		}
	}
}
