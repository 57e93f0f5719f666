package store

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"classminer/internal/core"
	"classminer/internal/skim"
	"classminer/internal/synth"
	"classminer/internal/vidmodel"
)

var (
	resOnce sync.Once
	res     *core.Result
	resErr  error
)

func minedResult(t testing.TB) *core.Result {
	t.Helper()
	resOnce.Do(func() {
		rng := rand.New(rand.NewSource(61))
		script := &synth.Script{Name: "store-test", Scenes: []synth.SceneSpec{
			synth.PresentationScene(rng, 0, 1, 1),
			synth.DialogScene(rng, 1, 2, 2, 3),
			synth.OperationScene(rng, 2, 3, synth.ContentSurgical, 0),
		}}
		v, err := synth.Generate(synth.DefaultConfig(), script, 61)
		if err != nil {
			resErr = err
			return
		}
		a, err := core.NewAnalyzer(core.Options{})
		if err != nil {
			resErr = err
			return
		}
		res, resErr = a.Analyze(v)
	})
	if resErr != nil {
		t.Fatal(resErr)
	}
	return res
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := minedResult(t)
	saved, err := EncodeResult(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(saved)
	if err != nil {
		t.Fatal(err)
	}
	if back.Video.Name != orig.Video.Name || back.Video.FPS != orig.Video.FPS {
		t.Fatal("video metadata lost")
	}
	if len(back.Shots) != len(orig.Shots) {
		t.Fatalf("shots: %d vs %d", len(back.Shots), len(orig.Shots))
	}
	for i := range orig.Shots {
		o, b := orig.Shots[i], back.Shots[i]
		if o.Start != b.Start || o.End != b.End || o.RepFrame != b.RepFrame {
			t.Fatalf("shot %d geometry mismatch", i)
		}
		for j := range o.Color {
			if o.Color[j] != b.Color[j] {
				t.Fatalf("shot %d colour mismatch", i)
			}
		}
	}
	if len(back.Groups) != len(orig.Groups) || len(back.Scenes) != len(orig.Scenes) {
		t.Fatalf("structure counts differ: %d/%d groups, %d/%d scenes",
			len(back.Groups), len(orig.Groups), len(back.Scenes), len(orig.Scenes))
	}
	if len(back.Clusters) != len(orig.Clusters) {
		t.Fatalf("clusters: %d vs %d", len(back.Clusters), len(orig.Clusters))
	}
	for i, sc := range orig.Scenes {
		if back.Scenes[i].Event != sc.Event {
			t.Fatalf("scene %d event mismatch", i)
		}
		if back.Scenes[i].ShotCount() != sc.ShotCount() {
			t.Fatalf("scene %d shot count mismatch", i)
		}
	}
}

func TestDecodePreservesPointerIdentity(t *testing.T) {
	saved, err := EncodeResult(minedResult(t))
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(saved)
	if err != nil {
		t.Fatal(err)
	}
	// A scene's shots must be the same *Shot values as the top-level table.
	byIdx := map[int]*vidmodel.Shot{}
	for _, s := range back.Shots {
		byIdx[s.Index] = s
	}
	for _, sc := range back.Scenes {
		for _, s := range sc.Shots() {
			if byIdx[s.Index] != s {
				t.Fatal("pointer identity lost between scene and shot table")
			}
		}
	}
}

func TestDecodeRebuildsSkim(t *testing.T) {
	orig := minedResult(t)
	saved, err := EncodeResult(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(saved)
	if err != nil {
		t.Fatal(err)
	}
	if back.Skim == nil {
		t.Fatal("skim not rebuilt")
	}
	for l := skim.Level1; l <= skim.Level4; l++ {
		if got, want := back.Skim.FCR(l), orig.Skim.FCR(l); got != want {
			t.Fatalf("level %d FCR %v vs %v", l, got, want)
		}
	}
}

// TestLibraryRoundTrip: a library entry survives JSON — what the
// benchmark's store probe times — and decodes back to a result.
func TestLibraryRoundTrip(t *testing.T) {
	saved, err := EncodeResult(minedResult(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(SavedLibraryEntry{Subcluster: "medicine", Result: saved})
	if err != nil {
		t.Fatal(err)
	}
	var back SavedLibraryEntry
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Subcluster != "medicine" || back.Result == nil || back.Result.Version != FormatVersion {
		t.Fatalf("entry = %+v", back)
	}
	if _, err := DecodeResult(back.Result); err != nil {
		t.Fatal(err)
	}
}

func TestVersionChecks(t *testing.T) {
	if _, err := DecodeResult(&SavedResult{Version: 99}); err == nil {
		t.Fatal("want version error")
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := EncodeResult(nil); err == nil {
		t.Fatal("want nil error")
	}
}

func TestDecodeBadReferences(t *testing.T) {
	saved, err := EncodeResult(minedResult(t))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a group's shot reference.
	corrupt := *saved
	corrupt.Groups = append([]SavedGroup(nil), saved.Groups...)
	corrupt.Groups[0].Shots = []int{99999}
	if _, err := DecodeResult(&corrupt); err == nil {
		t.Fatal("want bad-reference error")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := t.TempDir() + "/lib.json"
	saved, err := EncodeResult(minedResult(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(saved)
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back SavedResult
	if err := json.Unmarshal(b, &back); err != nil || back.Version != FormatVersion || back.VideoName != "store-test" {
		t.Fatalf("read back version %d, video %q: %v", back.Version, back.VideoName, err)
	}
	// A failed write must leave no temp litter and not clobber the target.
	writeErr := fmt.Errorf("disk on fire")
	if err := WriteFileAtomic(path, func(io.Writer) error { return writeErr }); err != writeErr {
		t.Fatalf("err = %v, want the write error", err)
	}
	dir, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != 1 {
		t.Fatalf("temp file left behind: %v", dir)
	}
	if f, err := os.Open(path); err != nil {
		t.Fatal("target clobbered:", err)
	} else {
		f.Close()
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("want error for a missing directory")
	}
}
