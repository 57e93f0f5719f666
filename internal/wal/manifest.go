package wal

import (
	"encoding/json"
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
	// legacySnapSuffix names the snapshots written before snapshots were
	// frames: one JSON document (see LegacySnapshot). Never written, read once.
	legacySnapSuffix = ".json"
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
	// Compactions is read, never written: builds that could rewrite sealed
	// segments in place counted the rewrites here, and a directory that
	// still carries a count is checkpointed once on its first recovery
	// (Engine.Rewritten). Every manifest this build commits leaves it zero,
	// which omits it.
	Compactions uint64 `json:"compactions,omitempty"`
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

// listSnapshots returns the names of dir's snapshot files, of either format.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var snaps []string
	for _, e := range entries {
		for _, suffix := range [...]string{snapSuffix, legacySnapSuffix} {
			if _, ok := parseIndexed(e.Name(), snapPrefix, suffix); ok {
				snaps = append(snaps, e.Name())
			}
		}
	}
	return snaps, nil
}
