// Package summary implements the two §5 follow-on applications the paper
// names beyond scalable skimming: pictorial summarization (a storyboard
// mosaic of representative frames, arranged by the content hierarchy) and
// hierarchical video browsing (a navigable tree over clustered scenes,
// scenes, groups and shots).
package summary

import (
	"fmt"
	"strings"

	"classminer/internal/core"
	"classminer/internal/vidmodel"
)

// Storyboard is a pictorial summary: a mosaic frame of representative
// thumbnails plus the metadata of every tile.
type Storyboard struct {
	Mosaic *vidmodel.Frame
	Tiles  []Tile
	Cols   int
	Rows   int
	ThumbW int
	ThumbH int
}

// Tile locates one thumbnail in the mosaic.
type Tile struct {
	SceneIndex int
	ShotIndex  int
	Event      vidmodel.EventKind
	X, Y       int // top-left pixel of the thumbnail in the mosaic
}

// BuildStoryboard renders the pictorial summary of a mined video: one
// thumbnail per scene (its representative group's representative shot),
// laid out left-to-right in temporal order, cols tiles per row. The video
// must still carry its frames.
func BuildStoryboard(res *core.Result, cols int) (*Storyboard, error) {
	if res == nil || res.Video == nil || len(res.Video.Frames) == 0 {
		return nil, fmt.Errorf("summary: result carries no frames (media-less results cannot be storyboarded)")
	}
	if len(res.Scenes) == 0 {
		return nil, fmt.Errorf("summary: no scenes to summarise")
	}
	if cols <= 0 {
		cols = 4
	}
	src := res.Video.Frames[0]
	thumbW, thumbH := src.W/2, src.H/2
	if thumbW < 4 || thumbH < 4 {
		thumbW, thumbH = src.W, src.H
	}
	rows := (len(res.Scenes) + cols - 1) / cols
	const pad = 1
	sb := &Storyboard{
		Mosaic: vidmodel.NewFrame(cols*(thumbW+pad)+pad, rows*(thumbH+pad)+pad),
		Cols:   cols, Rows: rows, ThumbW: thumbW, ThumbH: thumbH,
	}
	for i, sc := range res.Scenes {
		shot := representativeShot(sc)
		if shot == nil {
			continue
		}
		frame := res.Video.Frames[clampInt(shot.RepFrame, 0, len(res.Video.Frames)-1)]
		x := pad + (i%cols)*(thumbW+pad)
		y := pad + (i/cols)*(thumbH+pad)
		drawThumb(sb.Mosaic, frame, x, y, thumbW, thumbH)
		sb.Tiles = append(sb.Tiles, Tile{
			SceneIndex: sc.Index, ShotIndex: shot.Index, Event: sc.Event, X: x, Y: y,
		})
	}
	return sb, nil
}

// representativeShot picks the scene's visual face: the representative
// shot of its representative group.
func representativeShot(sc *vidmodel.Scene) *vidmodel.Shot {
	g := sc.RepGroup
	if g == nil && len(sc.Groups) > 0 {
		g = sc.Groups[0]
	}
	if g == nil {
		return nil
	}
	if len(g.RepShots) > 0 && g.RepShots[0] != nil {
		return g.RepShots[0]
	}
	if len(g.Shots) > 0 {
		return g.Shots[0]
	}
	return nil
}

// drawThumb box-downsamples src into dst at (x0, y0) with size w×h.
func drawThumb(dst, src *vidmodel.Frame, x0, y0, w, h int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// Box filter over the source region backing this pixel.
			sx0 := x * src.W / w
			sx1 := (x + 1) * src.W / w
			sy0 := y * src.H / h
			sy1 := (y + 1) * src.H / h
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			if sy1 <= sy0 {
				sy1 = sy0 + 1
			}
			var r, g, b, n int
			for sy := sy0; sy < sy1; sy++ {
				for sx := sx0; sx < sx1; sx++ {
					pr, pg, pb := src.At(sx, sy)
					r += int(pr)
					g += int(pg)
					b += int(pb)
					n++
				}
			}
			dst.Set(x0+x, y0+y, byte(r/n), byte(g/n), byte(b/n))
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BrowseNode is one node of the hierarchical browsing tree (Fig. 1 made
// navigable): video → clustered scenes → scenes → groups → shots.
type BrowseNode struct {
	Kind     string // "video", "cluster", "scene", "group", "shot"
	Label    string
	Start    int // first frame covered
	End      int // one-past-last frame covered
	Event    vidmodel.EventKind
	Children []*BrowseNode
}

// BuildBrowseTree assembles the browsing hierarchy of a mined video. When
// clustering ran, clustered scenes form the first level; otherwise scenes
// hang directly under the root.
func BuildBrowseTree(res *core.Result) (*BrowseNode, error) {
	if res == nil || res.Video == nil {
		return nil, fmt.Errorf("summary: nil result")
	}
	root := &BrowseNode{Kind: "video", Label: res.Video.Name, End: totalFrames(res)}
	sceneNode := func(sc *vidmodel.Scene) *BrowseNode {
		first, last := sc.FrameSpan()
		sn := &BrowseNode{
			Kind:  "scene",
			Label: fmt.Sprintf("scene %d (%s)", sc.Index, sc.Event),
			Start: first, End: last, Event: sc.Event,
		}
		for _, g := range sc.Groups {
			gf, gl := g.FrameSpan()
			gn := &BrowseNode{
				Kind:  "group",
				Label: fmt.Sprintf("group %d (%s)", g.Index, g.Kind),
				Start: gf, End: gl, Event: sc.Event,
			}
			for _, s := range g.Shots {
				gn.Children = append(gn.Children, &BrowseNode{
					Kind:  "shot",
					Label: fmt.Sprintf("shot %d", s.Index),
					Start: s.Start, End: s.End, Event: sc.Event,
				})
			}
			sn.Children = append(sn.Children, gn)
		}
		return sn
	}
	if len(res.Clusters) > 0 {
		for _, c := range res.Clusters {
			cn := &BrowseNode{
				Kind:  "cluster",
				Label: fmt.Sprintf("clustered scene %d (%d scenes)", c.Index, len(c.Scenes)),
			}
			cn.Start = 1 << 62
			for _, sc := range c.Scenes {
				sn := sceneNode(sc)
				if sn.Start < cn.Start {
					cn.Start = sn.Start
				}
				if sn.End > cn.End {
					cn.End = sn.End
				}
				cn.Children = append(cn.Children, sn)
			}
			root.Children = append(root.Children, cn)
		}
	} else {
		for _, sc := range res.Scenes {
			root.Children = append(root.Children, sceneNode(sc))
		}
	}
	return root, nil
}

func totalFrames(res *core.Result) int {
	if len(res.Video.Frames) > 0 {
		return len(res.Video.Frames)
	}
	if res.Skim != nil {
		return res.Skim.TotalFrames
	}
	return 0
}

// Walk visits the tree depth-first, calling fn with each node and its depth.
func (n *BrowseNode) Walk(fn func(node *BrowseNode, depth int)) {
	var rec func(node *BrowseNode, depth int)
	rec = func(node *BrowseNode, depth int) {
		fn(node, depth)
		for _, c := range node.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
}

// Render prints the tree as an indented outline (the CLI browser).
func (n *BrowseNode) Render() string {
	var b strings.Builder
	n.Walk(func(node *BrowseNode, depth int) {
		fmt.Fprintf(&b, "%s%s [%d,%d)\n", strings.Repeat("  ", depth), node.Label, node.Start, node.End)
	})
	return b.String()
}
