package shard

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"classminer"
	"classminer/internal/store"
)

var admin = classminer.User{Name: "admin", Clearance: classminer.Administrator}

// tinyResult fabricates a small mined result with deterministic
// pseudo-random features, through the same SavedResult decode path a
// journal replay uses (mirrors the root package's recovery fixtures).
func tinyResult(t testing.TB, name string, seed int64, shots int) *classminer.Result {
	t.Helper()
	res, err := store.DecodeResult(tinySaved(name, seed, shots))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func tinySaved(name string, seed int64, shots int) *store.SavedResult {
	rng := rand.New(rand.NewSource(seed))
	sr := &store.SavedResult{
		Version:     store.FormatVersion,
		VideoName:   name,
		FPS:         25,
		TotalFrames: shots * 50,
	}
	feat := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	group := store.SavedGroup{Index: 0}
	for i := 0; i < shots; i++ {
		sr.Shots = append(sr.Shots, store.SavedShot{
			Index: i, Start: i * 50, End: (i+1)*50 - 1, RepFrame: i * 50,
			Color: feat(8), Texture: feat(4),
		})
		group.Shots = append(group.Shots, i)
	}
	group.RepShots = []int{0}
	sr.Groups = []store.SavedGroup{group}
	sr.Scenes = []store.SavedScene{{Index: 0, Groups: []int{0}, RepGroup: 0}}
	return sr
}

func quietWAL() classminer.DurableOptions {
	return classminer.DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1}
}

// copyTree copies a data dir, or one file of it, as it stands.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScenesByEventOrder pins the order of an event's scene listing: by video
// name, then scene index, whatever order the videos were registered in, the
// same for every identical request and whatever shard count New was given
// (it is ignored: each count builds the one library).
func TestScenesByEventOrder(t *testing.T) {
	const videos = 8
	var want []string
	for i := 0; i < videos; i++ { // zero-padded, so the names sort in index order
		for sc := 0; sc < 3; sc++ {
			want = append(want, fmt.Sprintf("case-5-%02d/%d", i, sc))
		}
	}
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			l, err := New(nil, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range rand.New(rand.NewSource(int64(n))).Perm(videos) {
				sr := tinySaved(fmt.Sprintf("case-5-%02d", i), 5000+int64(i), 2+i%3)
				sr.Scenes = nil
				for sc := 0; sc < 3; sc++ {
					sr.Scenes = append(sr.Scenes, store.SavedScene{Index: sc, Groups: []int{0}, RepGroup: 0, Event: int(classminer.EventDialog)})
				}
				res, err := store.DecodeResult(sr)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.AddResultCtx(context.Background(), res, "medicine"); err != nil {
					t.Fatal(err)
				}
			}
			for call := 0; call < 20; call++ {
				var got []string
				for _, r := range l.ScenesByEvent(admin, classminer.EventDialog) {
					got = append(got, fmt.Sprintf("%s/%d", r.VideoName, r.Scene.Index))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("call %d: scenes %v, want %v", call, got, want)
				}
			}
		})
	}
}
