package summary

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"classminer/internal/core"
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
		rng := rand.New(rand.NewSource(71))
		script := &synth.Script{Name: "summary-test", Scenes: []synth.SceneSpec{
			synth.PresentationScene(rng, 0, 1, 1),
			synth.OperationScene(rng, 1, 2, synth.ContentSurgical, 0),
			synth.DialogScene(rng, 2, 3, 2, 3),
		}}
		v, err := synth.Generate(synth.DefaultConfig(), script, 71)
		if err != nil {
			resErr = err
			return
		}
		a, err := core.NewAnalyzer(core.Options{SkipEvents: true})
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

func TestBuildStoryboard(t *testing.T) {
	r := minedResult(t)
	sb, err := BuildStoryboard(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Tiles) != len(r.Scenes) {
		t.Fatalf("tiles = %d, want %d", len(sb.Tiles), len(r.Scenes))
	}
	if sb.Mosaic.W <= 0 || sb.Mosaic.H <= 0 {
		t.Fatal("empty mosaic")
	}
	// Every tile is inside the mosaic and non-black (a real thumbnail).
	for _, tile := range sb.Tiles {
		if tile.X < 0 || tile.Y < 0 || tile.X+sb.ThumbW > sb.Mosaic.W || tile.Y+sb.ThumbH > sb.Mosaic.H {
			t.Fatalf("tile out of bounds: %+v", tile)
		}
		var sum int
		for y := 0; y < sb.ThumbH; y++ {
			for x := 0; x < sb.ThumbW; x++ {
				pr, pg, pb := sb.Mosaic.At(tile.X+x, tile.Y+y)
				sum += int(pr) + int(pg) + int(pb)
			}
		}
		if sum == 0 {
			t.Fatalf("tile for scene %d rendered black", tile.SceneIndex)
		}
	}
}

func TestBuildStoryboardColsClamp(t *testing.T) {
	r := minedResult(t)
	sb, err := BuildStoryboard(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Cols != 4 {
		t.Fatalf("default cols = %d", sb.Cols)
	}
}

func TestBuildStoryboardErrors(t *testing.T) {
	if _, err := BuildStoryboard(nil, 3); err == nil {
		t.Fatal("want nil-result error")
	}
	mediaLess := &core.Result{Video: &vidmodel.Video{Name: "x"}}
	if _, err := BuildStoryboard(mediaLess, 3); err == nil {
		t.Fatal("want media-less error")
	}
}

func TestBuildBrowseTree(t *testing.T) {
	r := minedResult(t)
	root, err := BuildBrowseTree(r)
	if err != nil {
		t.Fatal(err)
	}
	if root.Kind != "video" {
		t.Fatal("root must be the video node")
	}
	counts := map[string]int{}
	root.Walk(func(n *BrowseNode, depth int) {
		counts[n.Kind]++
		if depth > 4 {
			t.Fatal("tree too deep")
		}
	})
	if counts["scene"] != len(r.Scenes) {
		t.Fatalf("scene nodes = %d, want %d", counts["scene"], len(r.Scenes))
	}
	if counts["shot"] == 0 || counts["group"] == 0 {
		t.Fatalf("tree incomplete: %v", counts)
	}
	if len(r.Clusters) > 0 && counts["cluster"] != len(r.Clusters) {
		t.Fatalf("cluster nodes = %d, want %d", counts["cluster"], len(r.Clusters))
	}
}

// TestBrowseFind checks that the tree's spans locate a frame: a scene node
// and a shot node contain the first scene's first frame, and no node
// contains a frame past the video.
func TestBrowseFind(t *testing.T) {
	r := minedResult(t)
	root, err := BuildBrowseTree(r)
	if err != nil {
		t.Fatal(err)
	}
	find := func(frame int, kind string) *BrowseNode {
		var best *BrowseNode
		root.Walk(func(node *BrowseNode, depth int) {
			if node.Kind == kind && frame >= node.Start && frame < node.End {
				best = node
			}
		})
		return best
	}
	first, _ := r.Scenes[0].FrameSpan()
	if n := find(first, "scene"); n == nil {
		t.Fatal("scene lookup failed")
	}
	if n := find(first, "shot"); n == nil || n.Kind != "shot" {
		t.Fatal("shot lookup failed")
	}
	if n := find(1<<40, "scene"); n != nil {
		t.Fatal("out-of-range frame should find nothing")
	}
}

func TestBrowseRender(t *testing.T) {
	r := minedResult(t)
	root, err := BuildBrowseTree(r)
	if err != nil {
		t.Fatal(err)
	}
	out := root.Render()
	if !strings.Contains(out, "scene 0") || !strings.Contains(out, "shot") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestBrowseTreeWithoutClusters(t *testing.T) {
	r := minedResult(t)
	noClusters := *r
	noClusters.Clusters = nil
	root, err := BuildBrowseTree(&noClusters)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != len(r.Scenes) {
		t.Fatalf("scenes should hang under root: %d vs %d", len(root.Children), len(r.Scenes))
	}
}
