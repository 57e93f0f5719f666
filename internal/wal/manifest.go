package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"classminer/internal/store"
)

// manifestVersion guards against decoding an incompatible data directory.
const manifestVersion = 1

const (
	manifestName = "MANIFEST"
	lockName     = "LOCK"
	segPrefix    = "wal-"
	segSuffix    = ".log"
	snapPrefix   = "snap-"
	snapSuffix   = ".ckpt"
)

// manifest is the commit record of the storage engine: which snapshot is
// current and which is the oldest log segment recovery must replay on top
// of it. It is only ever replaced atomically (write-temp, fsync, rename,
// fsync dir), so a crash during checkpointing leaves either the old or the
// new manifest — never a torn one — and the files each version names are
// pruned only after the replacement is durable.
type manifest struct {
	Version int `json:"version"`
	// Generation counts completed checkpoints.
	Generation uint64 `json:"generation"`
	// Snapshot is the current snapshot's file name ("" before the first
	// checkpoint: recovery is then a pure log replay).
	Snapshot string `json:"snapshot"`
	// FirstSegment is the oldest segment recovery replays; earlier
	// segments are superseded by the snapshot.
	FirstSegment uint64 `json:"firstSegment"`
	// Rewrites is read, never written: builds that could rewrite sealed
	// segments in place counted the rewrites under this key, and a manifest
	// that carries it at all is refused (refuseRetired).
	Rewrites json.RawMessage `json:"compactions,omitempty"`
}

// ErrRetiredFormat is wrapped by the error for a data directory, or a frame in
// one, in a format earlier builds wrote and this one no longer reads. Nothing
// is converted or touched: the directory stays as the converting build expects.
var ErrRetiredFormat = errors.New("wal: retired on-disk format")

// retired names what was found and the last build that converts it; any build
// since 11fb8c7 converts it too.
func retired(what string) error {
	return fmt.Errorf("%w: %s; build 93272af is the last that converts it: boot it once on this directory, POST /v1/admin/checkpoint, stop",
		ErrRetiredFormat, what)
}

// refuseRetired fails when dir, whose manifest is man, is in a retired layout:
// segments rewritten in place, a JSON snapshot, or the SHARDS file builds with
// a log per shard wrote over their shard-<i>/ dirs. A JSON frame is refused
// where it is decoded (DecodeRecordInto).
func refuseRetired(dir string, man manifest) error {
	switch _, err := os.Stat(filepath.Join(dir, "SHARDS")); {
	case man.Rewrites != nil:
		return retired(manifestName + ` carries "compactions"`)
	case strings.HasSuffix(man.Snapshot, ".json"):
		return retired("snapshot " + man.Snapshot + " is a JSON document")
	case err == nil:
		return retired("a SHARDS file marks per-shard data dirs")
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// loadManifest reads dir's manifest, or returns the pristine state (no
// snapshot, replay from segment 1) when none exists yet.
func loadManifest(dir string) (manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{Version: manifestVersion, FirstSegment: 1}, nil
	}
	if err != nil {
		return manifest{}, fmt.Errorf("wal: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return manifest{}, fmt.Errorf("wal: parsing %s: %w", manifestName, err)
	}
	if m.Version != manifestVersion {
		return manifest{}, fmt.Errorf("wal: %s version %d unsupported (want %d)", manifestName, m.Version, manifestVersion)
	}
	if m.FirstSegment == 0 {
		m.FirstSegment = 1
	}
	return m, nil
}

// write commits m as dir's manifest.
func (m manifest) write(dir string) error {
	return store.WriteFileAtomic(filepath.Join(dir, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&m)
	})
}

func segmentName(idx uint64) string  { return fmt.Sprintf("%s%020d%s", segPrefix, idx, segSuffix) }
func snapshotName(gen uint64) string { return fmt.Sprintf("%s%020d%s", snapPrefix, gen, snapSuffix) }

// parseIndexed extracts the numeric index from a prefixed, zero-padded file
// name like wal-…​.log or snap-…​.ckpt.
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	idx, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return idx, err == nil
}

// listSegments returns the indices of dir's log segments in ascending order.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if idx, ok := parseIndexed(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// listTempFiles returns the names of orphaned WriteFileAtomic temps in dir:
// files a crashed atomic write of one of the engine's own artefacts
// (segment, snapshot, MANIFEST) left behind. The ".tmp" infix can never
// appear in a committed name, so matching it alongside a known prefix is
// safe — nothing the manifest could name is ever returned.
func listTempFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var temps []string
	for _, e := range entries {
		name := e.Name()
		if !strings.Contains(name, ".tmp") {
			continue
		}
		if strings.HasPrefix(name, segPrefix) || strings.HasPrefix(name, snapPrefix) ||
			strings.HasPrefix(name, manifestName+".tmp") {
			temps = append(temps, name)
		}
	}
	return temps, nil
}

// listSnapshots returns the names of dir's snapshot files.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var snaps []string
	for _, e := range entries {
		if _, ok := parseIndexed(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, e.Name())
		}
	}
	return snaps, nil
}
