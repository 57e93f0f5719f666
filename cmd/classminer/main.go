// Command classminer runs the full ClassMiner pipeline on one synthetic
// corpus video and prints its mined content structure, events and scalable
// skimming — the CLI counterpart of the Fig. 11 prototype. It is the
// offline miner of the paper's split: -save writes the mined result as a
// POST /v1/videos body, which classminerd indexes as it is.
//
// Usage:
//
//	classminer [-video laparoscopy] [-scale 0.5] [-seed 2003] [-level 3] [-mpeg] [-save body.json]
//	curl -X POST localhost:8471/v1/videos -H 'Authorization: Bearer …' --data-binary @body.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"classminer/internal/core"
	"classminer/internal/mpeg"
	"classminer/internal/skim"
	"classminer/internal/store"
	"classminer/internal/synth"
)

func main() {
	videoName := flag.String("video", "laparoscopy", "corpus video: "+fmt.Sprint(synth.CorpusNames()))
	scale := flag.Float64("scale", 0.5, "corpus scale")
	seed := flag.Int64("seed", 2003, "corpus seed")
	level := flag.Int("level", 3, "skimming level to list (1-4)")
	useMPEG := flag.Bool("mpeg", false, "round-trip the video through the simulated MPEG codec first")
	saveTo := flag.String("save", "", "write the mined result to this file as a classminerd POST /v1/videos body (JSON)")
	flag.Parse()

	if err := run(*videoName, *scale, *seed, *level, *useMPEG, *saveTo); err != nil {
		fmt.Fprintln(os.Stderr, "classminer:", err)
		os.Exit(1)
	}
}

func run(videoName string, scale float64, seed int64, level int, useMPEG bool, saveTo string) error {
	script := synth.CorpusScript(videoName, scale, seed)
	if script == nil {
		return fmt.Errorf("unknown corpus video %q (have %v)", videoName, synth.CorpusNames())
	}
	v, err := synth.Generate(synth.DefaultConfig(), script, seed)
	if err != nil {
		return err
	}
	if useMPEG {
		data, err := mpeg.Encode(v, mpeg.Options{})
		if err != nil {
			return err
		}
		raw := len(v.Frames) * v.Frames[0].W * v.Frames[0].H * 3
		fmt.Printf("MPEG round-trip: %d frames, %d B compressed (%.1fx vs raw)\n",
			len(v.Frames), len(data), float64(raw)/float64(len(data)))
		dec, err := mpeg.Decode(data)
		if err != nil {
			return err
		}
		dec.Name, dec.Audio, dec.Truth = v.Name, v.Audio, v.Truth
		v = dec
	}

	analyzer, err := core.NewAnalyzer(core.Options{})
	if err != nil {
		return err
	}
	res, err := analyzer.Analyze(v)
	if err != nil {
		return err
	}

	fmt.Println(res.Summary())
	fmt.Println()
	fmt.Println("scenes:")
	for _, sc := range res.Scenes {
		first, last := sc.FrameSpan()
		fmt.Printf("  scene %2d [%5.1fs – %5.1fs] %2d shots in %d groups  event: %s\n",
			sc.Index, float64(first)/v.FPS, float64(last)/v.FPS,
			sc.ShotCount(), len(sc.Groups), sc.Event)
	}
	fmt.Println()
	fmt.Println("scalable skimming:")
	fmt.Print(res.Skim.Describe())
	fmt.Println()
	fmt.Printf("event bar (P=presentation D=dialog C=clinical .=unknown -=discarded):\n%s\n\n",
		res.Skim.ColorBar(72))

	l := skim.Level(level)
	shots := res.Skim.Shots(l)
	fmt.Printf("skim level %d playback (%d shots):\n", level, len(shots))
	for _, s := range shots {
		fmt.Printf("  shot %3d  frames [%5d,%5d)  event %s\n",
			s.Index, s.Start, s.End, res.EventOf(s.Start))
	}

	if saveTo != "" {
		if err := save(saveTo, res); err != nil {
			return err
		}
		fmt.Printf("\nsaved a POST /v1/videos body to %s\n", saveTo)
	}
	return nil
}

// save writes res to path as the body of a classminerd ingest request,
// placed under the "medicine" subcluster.
func save(path string, res *core.Result) error {
	saved, err := store.EncodeResult(res)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(&store.IngestBody{Subcluster: "medicine", Saved: saved}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
