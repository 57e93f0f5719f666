// Eventquery answers the paper's motivating query — "show me all
// patient–doctor dialogs within the video library" — by mining a small
// library and listing every scene per event category.
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

	for i, name := range []string{"skin-examination", "face-repair"} {
		script := synth.CorpusScript(name, 0.3, 11)
		video, err := synth.Generate(synth.DefaultConfig(), script, int64(20+i))
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
		fmt.Printf("indexed %q: %s\n", name, library.Video(name).Result.Summary())
	}
	if err := library.BuildIndex(); err != nil {
		log.Fatal(err)
	}

	doctor := classminer.User{Name: "dr-lee", Clearance: classminer.Clinician}
	for _, kind := range []classminer.EventKind{
		classminer.EventDialog,
		classminer.EventPresentation,
		classminer.EventClinicalOperation,
	} {
		refs := library.ScenesByEvent(doctor, kind)
		fmt.Printf("\n%q scenes visible to %s: %d\n", kind, doctor.Name, len(refs))
		for _, r := range refs {
			first, last := r.Scene.FrameSpan()
			fmt.Printf("  %s  scene %d  frames [%d,%d)  %d shots\n",
				r.VideoName, r.Scene.Index, first, last, r.Scene.ShotCount())
		}
	}
}
