// Package store persists mined video metadata. A video database keeps the
// *mining results* — shot descriptors, the content hierarchy, mined events —
// not the media itself, so a saved library can be reloaded and queried
// without re-running the pipeline (or without the original frames at all).
//
// There is one model and two serialisations of it. The model is SavedResult:
// a mined result with explicit index-based references — Go pointers (shots
// shared between groups, scenes and skim levels) are flattened to indices by
// EncodeResult and re-linked, validated, by DecodeResult, preserving
// identity. JSON (the struct tags) is the human-readable one: the "saved"
// member of a POST /v1/videos body, which classminer -save writes and
// classminerd decodes (internal/server/decode.go). The binary entry
// (AppendEntry/DecodeEntry, entry.go) is the compact one: what a durable
// library's log, checkpoints and replication stream carry per video.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"classminer/internal/core"
	"classminer/internal/featrow"
	"classminer/internal/skim"
	"classminer/internal/vidmodel"
)

// FormatVersion guards against decoding incompatible files.
const FormatVersion = 1

// SavedShot mirrors vidmodel.Shot. Row is set only on the way to the binary
// entry (AppendResultEntry), which writes a registered shot's packed row as
// it is; the JSON carries the dense rows alone.
type SavedShot struct {
	Index    int         `json:"index"`
	Start    int         `json:"start"`
	End      int         `json:"end"`
	RepFrame int         `json:"repFrame"`
	Color    []float64   `json:"color"`
	Texture  []float64   `json:"texture"`
	Row      featrow.Row `json:"-"`
}

// dense returns s with a packed row unpacked into Color and Texture.
func (s SavedShot) dense() SavedShot {
	if s.Row.IsZero() {
		return s
	}
	c, t := s.Row.Halves()
	f := s.Row.AppendTo(nil)
	s.Color, s.Texture, s.Row = f[:c.N:c.N], f[c.N:], featrow.Row{}
	if c.Nil {
		s.Color = nil
	}
	if t.Nil {
		s.Texture = nil
	}
	return s
}

// SavedGroup references shots by their position in the shot table.
type SavedGroup struct {
	Index    int   `json:"index"`
	Kind     int   `json:"kind"`
	Shots    []int `json:"shots"`
	RepShots []int `json:"repShots"`
}

// SavedScene references groups by position in the group table.
type SavedScene struct {
	Index    int   `json:"index"`
	Groups   []int `json:"groups"`
	RepGroup int   `json:"repGroup"` // -1 when absent
	Event    int   `json:"event"`
}

// SavedCluster references scenes by position in the scene table.
type SavedCluster struct {
	Index    int   `json:"index"`
	Scenes   []int `json:"scenes"` // positions in the scene table
	RepGroup int   `json:"repGroup"`
}

// IngestBody is the body of classminerd's POST /v1/videos: a mined result
// and the subcluster to file it under. classminer -save writes one; the
// daemon's request adds an optional name override and replace flag to it.
type IngestBody struct {
	Subcluster string       `json:"subcluster"`
	Saved      *SavedResult `json:"saved"`
}

// SavedResult is the on-disk form of one mined video.
type SavedResult struct {
	Version     int            `json:"version"`
	VideoName   string         `json:"videoName"`
	FPS         float64        `json:"fps"`
	TotalFrames int            `json:"totalFrames"`
	Shots       []SavedShot    `json:"shots"`
	Groups      []SavedGroup   `json:"groups"`
	Scenes      []SavedScene   `json:"scenes"`
	Discarded   []SavedScene   `json:"discarded"`
	Clusters    []SavedCluster `json:"clusters"`
	Events      map[int]int    `json:"events"` // scene index -> event kind
}

// EncodeResult converts a mined result to its persistent form. Raw media
// (frames, audio) is intentionally not persisted. A registered shot's packed
// feature is unpacked into Color and Texture.
func EncodeResult(r *core.Result) (*SavedResult, error) { return encodeResult(r, false) }

// AppendResultEntry appends to dst the binary entry (AppendEntry) of r
// placed under subcluster. A registered shot's packed feature is written as
// it is: nothing is unpacked.
func AppendResultEntry(dst []byte, subcluster string, r *core.Result) ([]byte, error) {
	sr, err := encodeResult(r, true)
	if err != nil {
		return nil, err
	}
	return AppendEntry(dst, &SavedLibraryEntry{Subcluster: subcluster, Result: sr}), nil
}

// encodeResult is EncodeResult keeping, when packed is set, a registered
// shot's feature packed in SavedShot.Row.
func encodeResult(r *core.Result, packed bool) (*SavedResult, error) {
	if r == nil || r.Video == nil {
		return nil, fmt.Errorf("store: nil result")
	}
	out := &SavedResult{
		Version:     FormatVersion,
		VideoName:   r.Video.Name,
		FPS:         r.Video.FPS,
		TotalFrames: len(r.Video.Frames),
	}
	if out.TotalFrames == 0 && r.Skim != nil {
		out.TotalFrames = r.Skim.TotalFrames
	}
	shotPos := map[*vidmodel.Shot]int{}
	for i, s := range r.Shots {
		shotPos[s] = i
		ss := SavedShot{
			Index: s.Index, Start: s.Start, End: s.End, RepFrame: s.RepFrame,
			Color: s.Color, Texture: s.Texture, Row: s.Row,
		}
		if !packed {
			ss = ss.dense()
		}
		out.Shots = append(out.Shots, ss)
	}
	groupPos := map[*vidmodel.Group]int{}
	encodeGroup := func(g *vidmodel.Group) (SavedGroup, error) {
		sg := SavedGroup{Index: g.Index, Kind: int(g.Kind)}
		for _, s := range g.Shots {
			p, ok := shotPos[s]
			if !ok {
				return sg, fmt.Errorf("store: group %d references unknown shot %d", g.Index, s.Index)
			}
			sg.Shots = append(sg.Shots, p)
		}
		for _, s := range g.RepShots {
			if p, ok := shotPos[s]; ok {
				sg.RepShots = append(sg.RepShots, p)
			}
		}
		return sg, nil
	}
	for _, g := range r.Groups {
		groupPos[g] = len(out.Groups)
		sg, err := encodeGroup(g)
		if err != nil {
			return nil, err
		}
		out.Groups = append(out.Groups, sg)
	}
	encodeScene := func(sc *vidmodel.Scene) (SavedScene, error) {
		ss := SavedScene{Index: sc.Index, RepGroup: -1, Event: int(sc.Event)}
		for _, g := range sc.Groups {
			p, ok := groupPos[g]
			if !ok {
				// Groups of discarded scenes may not be in the main table;
				// append them now.
				p = len(out.Groups)
				groupPos[g] = p
				sg, err := encodeGroup(g)
				if err != nil {
					return ss, err
				}
				out.Groups = append(out.Groups, sg)
			}
			ss.Groups = append(ss.Groups, p)
		}
		if sc.RepGroup != nil {
			if p, ok := groupPos[sc.RepGroup]; ok {
				ss.RepGroup = p
			}
		}
		return ss, nil
	}
	scenePos := map[*vidmodel.Scene]int{}
	for _, sc := range r.Scenes {
		scenePos[sc] = len(out.Scenes)
		ss, err := encodeScene(sc)
		if err != nil {
			return nil, err
		}
		out.Scenes = append(out.Scenes, ss)
	}
	for _, sc := range r.Discarded {
		ss, err := encodeScene(sc)
		if err != nil {
			return nil, err
		}
		out.Discarded = append(out.Discarded, ss)
	}
	for _, c := range r.Clusters {
		sc := SavedCluster{Index: c.Index, RepGroup: -1}
		for _, s := range c.Scenes {
			if p, ok := scenePos[s]; ok {
				sc.Scenes = append(sc.Scenes, p)
			}
		}
		if c.RepGroup != nil {
			if p, ok := groupPos[c.RepGroup]; ok {
				sc.RepGroup = p
			}
		}
		out.Clusters = append(out.Clusters, sc)
	}
	if r.Events != nil {
		out.Events = map[int]int{}
		for k, v := range r.Events {
			out.Events[k] = int(v)
		}
	}
	return out, nil
}

// DecodeResult reconstructs a mined result (with pointer identity) from its
// persistent form. The returned Result carries a media-less Video (name,
// fps, frame count only) and a rebuilt skim.
func DecodeResult(sr *SavedResult) (*core.Result, error) {
	if sr == nil {
		return nil, fmt.Errorf("store: nil saved result")
	}
	if sr.Version != FormatVersion {
		return nil, fmt.Errorf("store: format version %d unsupported (want %d)", sr.Version, FormatVersion)
	}
	res := &core.Result{
		Video: &vidmodel.Video{Name: sr.VideoName, FPS: sr.FPS},
	}
	shots := make([]*vidmodel.Shot, len(sr.Shots))
	for i, s := range sr.Shots {
		shots[i] = &vidmodel.Shot{
			Index: s.Index, Start: s.Start, End: s.End, RepFrame: s.RepFrame,
			Color: s.Color, Texture: s.Texture,
		}
	}
	res.Shots = shots
	groups := make([]*vidmodel.Group, len(sr.Groups))
	for i, sg := range sr.Groups {
		g := &vidmodel.Group{Index: sg.Index, Kind: vidmodel.GroupKind(sg.Kind)}
		for _, p := range sg.Shots {
			if p < 0 || p >= len(shots) {
				return nil, fmt.Errorf("store: group %d has bad shot ref %d", sg.Index, p)
			}
			g.Shots = append(g.Shots, shots[p])
		}
		for _, p := range sg.RepShots {
			if p < 0 || p >= len(shots) {
				return nil, fmt.Errorf("store: group %d has bad rep-shot ref %d", sg.Index, p)
			}
			g.RepShots = append(g.RepShots, shots[p])
		}
		groups[i] = g
	}
	decodeScene := func(ss SavedScene) (*vidmodel.Scene, error) {
		sc := &vidmodel.Scene{Index: ss.Index, Event: vidmodel.EventKind(ss.Event)}
		for _, p := range ss.Groups {
			if p < 0 || p >= len(groups) {
				return nil, fmt.Errorf("store: scene %d has bad group ref %d", ss.Index, p)
			}
			sc.Groups = append(sc.Groups, groups[p])
		}
		if ss.RepGroup >= 0 && ss.RepGroup < len(groups) {
			sc.RepGroup = groups[ss.RepGroup]
		}
		return sc, nil
	}
	// Only groups detected at the top level belong in Result.Groups;
	// groups appended for discarded scenes stay reachable via the scenes.
	res.Groups = groups[:min(len(groups), len(sr.Groups))]
	scenes := make([]*vidmodel.Scene, len(sr.Scenes))
	for i, ss := range sr.Scenes {
		sc, err := decodeScene(ss)
		if err != nil {
			return nil, err
		}
		scenes[i] = sc
	}
	res.Scenes = scenes
	for _, ss := range sr.Discarded {
		sc, err := decodeScene(ss)
		if err != nil {
			return nil, err
		}
		res.Discarded = append(res.Discarded, sc)
	}
	for _, c := range sr.Clusters {
		cl := &vidmodel.ClusteredScene{Index: c.Index}
		for _, p := range c.Scenes {
			if p < 0 || p >= len(scenes) {
				return nil, fmt.Errorf("store: cluster %d has bad scene ref %d", c.Index, p)
			}
			cl.Scenes = append(cl.Scenes, scenes[p])
		}
		if c.RepGroup >= 0 && c.RepGroup < len(groups) {
			cl.RepGroup = groups[c.RepGroup]
		}
		res.Clusters = append(res.Clusters, cl)
	}
	if sr.Events != nil {
		res.Events = map[int]vidmodel.EventKind{}
		for k, v := range sr.Events {
			res.Events[k] = vidmodel.EventKind(v)
		}
	}
	sk, err := skim.Build(res.Shots, res.Groups, res.Scenes, res.Clusters, sr.TotalFrames)
	if err != nil {
		return nil, fmt.Errorf("store: rebuilding skim: %w", err)
	}
	res.Skim = sk
	return res, nil
}

// SavedLibraryEntry pairs a mined video with its concept placement: the
// model of one binary entry (AppendEntry/DecodeEntry). Its JSON tags serve
// only the frozen benchmark's store probe (cmd/loadgen), which times a JSON
// round trip of it; ROADMAP item 1(d) retires them with the probe.
type SavedLibraryEntry struct {
	Subcluster string       `json:"subcluster"`
	Result     *SavedResult `json:"result"`
}

// WriteFileAtomic streams write into a temp file in path's directory,
// renames it into place, and fsyncs the directory, so a crash mid-save (or
// a concurrent reader) never observes a truncated snapshot and a completed
// save survives power loss — rename alone only becomes durable once the
// directory entry is flushed. This is how the serving daemon and the WAL
// checkpoint manager persist snapshots and manifests.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Both defers are no-ops after success (the rename consumes the file,
	// the explicit Close below runs first); on every error path they drop
	// the temp file instead of littering the data directory.
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making preceding renames and file creations
// in it durable. Callers that require crash consistency across a rename
// (WriteFileAtomic, WAL segment rotation) must not skip this: POSIX only
// guarantees the new directory entry reaches stable storage once the
// directory itself is synced.
func SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		// Directories cannot be fsynced through a read-only handle on
		// Windows; NTFS metadata operations are journaled anyway, so the
		// durability gap the sync closes on POSIX does not apply.
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return nil
}
