package main

import (
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"classminer"
	"classminer/internal/synth"
	"classminer/internal/wal"
)

// daemonEnv, set, makes the test binary run the daemon's main on its own
// command line, so a test can see what the flag parser itself says.
const daemonEnv = "CLASSMINERD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestRemovedFlagsAreUndefined: a flag whose mechanism was deleted is refused
// by the parser, not accepted and ignored — an operator's stale unit file
// fails loudly at the first start after the upgrade.
func TestRemovedFlagsAreUndefined(t *testing.T) {
	for _, name := range []string{
		"compact-bytes",
		"fsync", "fsync-interval",
		"segment-bytes", "checkpoint-bytes", "checkpoint-records", "repl-pin-budget-bytes",
		"rebuild-after", "rebuild-debounce", "cache",
		"metrics", "repl-lag-ready", "load",
		"bootstrap", "scale", "seed", "subcluster",
	} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-"+name, "1")
			cmd.Env = append(os.Environ(), daemonEnv+"=1")
			out, err := cmd.CombinedOutput()
			if err == nil || !strings.Contains(string(out), "flag provided but not defined: -"+name) {
				t.Fatalf("classminerd -%s 1: err %v, output:\n%s", name, err, out)
			}
		})
	}
}

// TestIgnoredFlagsParse: the four flags kept for the frozen benchmark's
// command line (cmd/loadgen passes -skip-events -workers 8 -queue 64, and
// -shards N) still parse, and change nothing.
func TestIgnoredFlagsParse(t *testing.T) {
	plain, err := parseFlags(flag.NewFlagSet("plain", flag.ContinueOnError), nil)
	if err != nil {
		t.Fatal(err)
	}
	ignored, err := parseFlags(flag.NewFlagSet("ignored", flag.ContinueOnError),
		[]string{"-skip-events", "-workers", "8", "-queue", "64", "-shards", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ignored) {
		t.Fatalf("ignored flags changed the config:\n%+v\n%+v", plain, ignored)
	}
}

// TestValidateRejectsBeforeSideEffects: every flag-only mistake is caught by
// validate, which run calls before it locks or replays anything. The
// data dir of each case must still not exist afterwards.
func TestValidateRejectsBeforeSideEffects(t *testing.T) {
	good := config{role: "leader", anon: "public"}
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
		{"unknown anon clearance", func(c *config) { c.anon = "pubic" }, "unknown clearance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			cfg.dataDir = filepath.Join(t.TempDir(), "data")
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
// both layouts a data dir can arrive in — a plain dir as classminer.Recover
// writes it, and the SHARDS + shard-<i>/ dir an older build wrote at
// -shards 4 — from a command line with no -shards and with one. The flag is
// parsed and ignored: both command lines give the same config, a plain dir
// opens with its videos, and the old layout is refused with
// wal.ErrRetiredFormat and left as it was.
func TestBuildLibraryLayouts(t *testing.T) {
	analyzer, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	logger := log.New(io.Discard, "", 0)

	const scale, seed = 0.2, 11
	var mined []*classminer.Result
	for _, name := range []string{"laparoscopy", "skin-examination"} {
		v, err := synth.Generate(synth.DefaultConfig(), synth.CorpusScript(name, scale, seed), seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := analyzer.Analyze(v)
		if err != nil {
			t.Fatal(err)
		}
		mined = append(mined, res)
	}
	want := "laparoscopy,skin-examination"
	// write journals one mined video into a fresh classminer data dir.
	write := func(dir string, res *classminer.Result) {
		t.Helper()
		l, err := classminer.Recover(dir, analyzer, classminer.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AddResult(res, "medicine"); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	layouts := map[string]func(dir string){
		"plain": func(dir string) {
			for _, res := range mined {
				write(dir, res)
			}
		},
		// Two of the four old shards hold a video.
		"SHARDS=4": func(dir string) {
			write(filepath.Join(dir, "shard-0"), mined[0])
			write(filepath.Join(dir, "shard-2"), mined[1])
			if err := os.WriteFile(filepath.Join(dir, "SHARDS"), []byte("{\"shards\":4}\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}

	cases := []struct {
		name    string
		layout  string
		flags   []string
		refused bool
	}{
		{"plain dir, default flags", "plain", nil, false},
		{"plain dir, -shards 4", "plain", []string{"-shards", "4"}, false},
		{"SHARDS=4 dir, default flags", "SHARDS=4", nil, true},
		{"SHARDS=4 dir, -shards 2", "SHARDS=4", []string{"-shards", "2"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			parse := func(flags []string) config {
				t.Helper()
				cfg, err := parseFlags(flag.NewFlagSet("classminerd", flag.ContinueOnError), append([]string{"-data-dir", dir}, flags...))
				if err != nil {
					t.Fatal(err)
				}
				return cfg
			}
			cfg := parse(tc.flags)
			if plain := parse(nil); !reflect.DeepEqual(cfg, plain) {
				t.Fatalf("%v parses to %+v, no flags to %+v", tc.flags, cfg, plain)
			}
			layouts[tc.layout](cfg.dataDir)
			lib, err := buildLibrary(logger, cfg, nil)
			if tc.refused {
				if !errors.Is(err, wal.ErrRetiredFormat) {
					t.Fatalf("buildLibrary = %v, want wal.ErrRetiredFormat", err)
				}
				for _, name := range []string{"SHARDS", "shard-0/wal-00000000000000000001.log", "shard-2/wal-00000000000000000001.log"} {
					if _, err := os.Stat(filepath.Join(cfg.dataDir, name)); err != nil {
						t.Fatalf("the refused boot removed %s: %v", name, err)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer lib.Close()
			if got := strings.Join(lib.VideoNames(), ","); got != want {
				t.Fatalf("recovered videos %s, want %s", got, want)
			}
			if lib.IndexStale() {
				t.Fatal("booted library serves a stale index")
			}
			for _, name := range []string{"SHARDS", "shard-0", "shard-2"} {
				if _, err := os.Stat(filepath.Join(cfg.dataDir, name)); !os.IsNotExist(err) {
					t.Fatalf("the booted data dir holds %s (stat: %v)", name, err)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.dataDir, "LOCK")); err != nil {
				t.Fatalf("the booted data dir has no top-level lock: %v", err)
			}
		})
	}
}
