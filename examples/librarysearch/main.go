// Librarysearch reproduces the §6.2 claim interactively: query-by-example
// over a multi-video library through the hierarchical multi-center index
// versus a flat scan of every shot, with the cost counters of Eqs. (24)
// and (25) printed side by side.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"classminer"
	"classminer/internal/index"
	"classminer/internal/synth"
)

func main() {
	analyzer, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		log.Fatal(err)
	}
	library := classminer.NewLibrary(nil)

	var allEntries []*index.Entry
	for i, name := range synth.CorpusNames() {
		script := synth.CorpusScript(name, 0.4, 51)
		video, err := synth.Generate(synth.DefaultConfig(), script, int64(50+i))
		if err != nil {
			log.Fatal(err)
		}
		res, err := analyzer.Analyze(video)
		if err != nil {
			log.Fatal(err)
		}
		if err := library.AddResultCtx(context.Background(), res, "medicine"); err != nil {
			log.Fatal(err)
		}
		allEntries = append(allEntries, res.IndexEntries("medicine")...)
	}
	if err := library.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("library: %d videos, %d shots indexed\n\n", len(synth.CorpusNames()), library.Size())

	admin := classminer.User{Name: "admin", Clearance: classminer.Administrator}
	query := allEntries[len(allEntries)/3].Shot.Feature()

	t0 := time.Now()
	flatHits, flatStats := index.FlatSearch(allEntries, query, 5)
	flatDur := time.Since(t0)

	t0 = time.Now()
	hierHits, hierStats, err := library.SearchIntoCtx(context.Background(), nil, admin, query, 5)
	if err != nil {
		log.Fatal(err)
	}
	hierDur := time.Since(t0)

	fmt.Printf("flat scan (Eq. 24):     %6d dist ops, %9d float ops, compared %4d, %v\n",
		flatStats.DistanceOps, flatStats.FloatOps, flatStats.Candidates, flatDur)
	fmt.Printf("hierarchical (Eq. 25):  %6d dist ops, %9d float ops, compared %4d, %v\n",
		hierStats.DistanceOps, hierStats.FloatOps, hierStats.Candidates, hierDur)
	fmt.Printf("float-op reduction: %.1fx\n\n", float64(flatStats.FloatOps)/float64(hierStats.FloatOps))

	fmt.Println("top hits (flat | hierarchical):")
	for i := 0; i < 5 && i < len(flatHits) && i < len(hierHits); i++ {
		f, h := flatHits[i], hierHits[i]
		fmt.Printf("  %d. %s shot %-4d (d=%.4f)  |  %s shot %-4d (d=%.4f)\n",
			i+1, f.Entry.VideoName, f.Entry.Shot.Index, f.Dist,
			h.Entry.VideoName, h.Entry.Shot.Index, h.Dist)
	}
}
