package shard

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"classminer"
	"classminer/internal/wal"
)

// legacyFixture is a data dir written by the last commit whose records were
// JSON (82ac79f): a snap-<gen>.json over three segments of JSON-envelope
// frames, the last of them the active one. It was generated by that tree and
// is kept as the real bytes of a retired format; this tree cannot write it.
const legacyFixture = "../wal/testdata/legacy-82ac79f"

// convertingBuild is the last build that converts a retired data dir; every
// refusal must name it.
const convertingBuild = "93272af"

// dirFiles returns every regular file under dir, by path relative to it,
// with its contents.
func dirFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// jsonFramesOnly requires every frame of the segment at path to be a JSON
// envelope.
func jsonFramesOnly(t testing.TB, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for i := 0; ; i++ {
		frame, err := wal.ReadRecord(br)
		if errors.Is(err, io.EOF) {
			if i == 0 {
				t.Fatalf("%s holds no frame", path)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s frame %d: %v", path, i, err)
		}
		if frame[0] != '{' {
			t.Fatalf("%s frame %d starts with %#x, not a JSON envelope", path, i, frame[0])
		}
	}
}

// TestRetiredFormatsRefused: a data dir in any layout an earlier build wrote
// is refused by both entry points — classminer.Recover, the daemon's, and
// this package's Recover, which the frozen benchmark still calls — with
// wal.ErrRetiredFormat, naming the build that converts it, and left exactly
// as it was: no file is truncated, pruned, rewritten or removed, so that
// build can still convert it. The layouts are the JSON era's snapshot and
// frames (real bytes, written by 82ac79f), a MANIFEST that counts in-place
// segment rewrites, and a SHARDS file over per-shard shard-<i>/ dirs.
func TestRetiredFormatsRefused(t *testing.T) {
	// A current dir with a snapshot and a log tail, as one in service has.
	current := filepath.Join(t.TempDir(), "current")
	l, err := classminer.Recover(current, nil, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"v0", "v1", "v2", "v3"} {
		if err := l.AddResult(tinyResult(t, name, int64(i+1), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	layouts := []struct {
		name  string
		build func(t *testing.T, dir string)
	}{
		{"JSON snapshot", func(t *testing.T, dir string) {
			copyTree(t, legacyFixture, dir)
		}},
		{"JSON frames", func(t *testing.T, dir string) {
			segs, _ := filepath.Glob(filepath.Join(legacyFixture, "wal-*.log"))
			if len(segs) < 2 {
				t.Fatalf("the fixture holds %d segments", len(segs))
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, seg := range segs {
				jsonFramesOnly(t, seg)
				b, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			manifest := `{"version": 1, "generation": 1, "snapshot": "", "firstSegment": 3}` + "\n"
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"compactions", func(t *testing.T, dir string) {
			copyTree(t, current, dir)
			path := filepath.Join(dir, "MANIFEST")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b = bytes.Replace(b, []byte("{"), []byte("{\n  \"compactions\": 3,"), 1)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"SHARDS", func(t *testing.T, dir string) {
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, current, filepath.Join(dir, "shard-0"))
			if err := os.WriteFile(filepath.Join(dir, "SHARDS"), []byte("{\"shards\":4}\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	boots := []struct {
		name string
		boot func(dir string) (io.Closer, error)
	}{
		{"shard.Recover", func(dir string) (io.Closer, error) { return Recover(dir, 4, nil, quietWAL()) }},
		{"classminer.Recover", func(dir string) (io.Closer, error) { return classminer.Recover(dir, nil, quietWAL()) }},
	}
	for _, layout := range layouts {
		for _, b := range boots {
			t.Run(layout.name+"/"+b.name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "data")
				layout.build(t, dir)
				before := dirFiles(t, dir)
				lib, err := b.boot(dir)
				if err == nil {
					lib.Close()
					t.Fatal("a retired layout booted")
				}
				if !errors.Is(err, wal.ErrRetiredFormat) || !strings.Contains(err.Error(), convertingBuild) {
					t.Fatalf("boot = %v; want wal.ErrRetiredFormat naming %s", err, convertingBuild)
				}
				after := dirFiles(t, dir)
				for name, was := range before {
					if now, ok := after[name]; !ok || !bytes.Equal(now, was) {
						t.Fatalf("the refused boot changed %s (%d → %d bytes, still there: %v)", name, len(was), len(now), ok)
					}
				}
				for name := range after {
					if _, ok := before[name]; !ok && name != "LOCK" {
						t.Fatalf("the refused boot left %s behind", name)
					}
				}
			})
		}
	}
}
