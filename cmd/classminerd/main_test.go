package main

import (
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"classminer"
	"classminer/internal/synth"
)

// TestValidateRejectsBeforeSideEffects: every flag-only mistake is caught by
// validate, which run calls before it trains, locks or replays anything. The
// data dir of each case must still not exist afterwards.
func TestValidateRejectsBeforeSideEffects(t *testing.T) {
	good := config{role: "leader", fsync: "always"}
	if err := validate(good); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(*config)
		want string
	}{
		{"unknown role", func(c *config) { c.role = "observer" }, "unknown -role"},
		{"follower without leader url", func(c *config) { c.role = "follower" }, "requires -leader-url"},
		{"follower without data dir", func(c *config) { c.role, c.leaderURL, c.dataDir = "follower", "http://leader", "" }, "requires -data-dir"},
		{"negative shards", func(c *config) { c.shards = -1 }, "-shards must be in"},
		{"too many shards", func(c *config) { c.shards = 100000 }, "-shards must be in"},
		{"unknown fsync policy", func(c *config) { c.fsync = "sometimes" }, "unknown -fsync policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			cfg.dataDir = filepath.Join(t.TempDir(), "data")
			cfg.bootstrap = "laparoscopy"
			tc.edit(&cfg)
			err := run(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q", err, tc.want)
			}
			if cfg.dataDir != "" {
				if _, serr := os.Stat(cfg.dataDir); !os.IsNotExist(serr) {
					t.Fatalf("a rejected command line still touched the data dir (stat: %v)", serr)
				}
			}
		})
	}
}

// TestBuildLibraryLayouts boots the daemon's one library constructor over
// both on-disk layouts: a dir written by classminer.Recover is a one-shard
// dir and stays one (no SHARDS, no shard-0/), a SHARDS dir reopens at its
// recorded count with no flag, and -shards can never reshard either.
func TestBuildLibraryLayouts(t *testing.T) {
	analyzer, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	logger := log.New(io.Discard, "", 0)
	base := config{fsync: "always", ckptBytes: -1, ckptRecords: -1, compactBytes: -1}

	plain := t.TempDir()
	pl, err := classminer.Recover(plain, analyzer, classminer.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const scale, seed = 0.2, 11
	for _, name := range []string{"laparoscopy", "skin-examination"} {
		v, err := synth.Generate(synth.DefaultConfig(), synth.CorpusScript(name, scale, seed), seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.AddVideo(v, "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	want := pl.VideoNames()
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}

	sharded := t.TempDir()
	cfg := base
	cfg.dataDir, cfg.shards = sharded, 4
	lib, err := buildLibrary(logger, analyzer, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		dir        string
		shards     int
		wantShards int // 0: the boot must be refused
	}{
		{"plain dir, default flags", plain, 0, 1},
		{"plain dir, -shards 4", plain, 4, 0},
		{"SHARDS=4 dir, default flags", sharded, 0, 4},
		{"SHARDS=4 dir, -shards 2", sharded, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.dataDir, cfg.shards = tc.dir, tc.shards
			lib, err := buildLibrary(logger, analyzer, cfg, nil)
			if tc.wantShards == 0 {
				if err == nil {
					lib.Close()
					t.Fatal("boot succeeded; want the shard-count mismatch refused")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer lib.Close()
			if got := lib.ShardCount(); got != tc.wantShards {
				t.Fatalf("booted %d shards, want %d", got, tc.wantShards)
			}
			if tc.dir != plain {
				return
			}
			if got := lib.VideoNames(); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("recovered videos %v, want %v", got, want)
			}
			if lib.IndexStale() {
				t.Fatal("booted library serves a stale index")
			}
		})
	}
	for _, name := range []string{"SHARDS", "shard-0"} {
		if _, err := os.Stat(filepath.Join(plain, name)); !os.IsNotExist(err) {
			t.Fatalf("the one-shard data dir grew %s (stat: %v)", name, err)
		}
	}
}
