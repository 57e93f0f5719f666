// Command classminerd serves a mined video library over HTTP — the online
// counterpart of the paper's §6 database: hierarchical k-NN search, mined-
// event scene queries, content-structure browsing and scalable-skimming
// metadata, all behind multilevel access control.
//
// The daemon always serves through the shard router (internal/shard) over
// -shards N >= 1 libraries; one shard, the default, is a single library
// behind a router that costs nothing. N partitions what lives in memory —
// locks, matrices, indexes, refits — not what is on disk: -data-dir holds one
// log at every N, so N may change from one boot to the next. The library is
// populated from a durable data directory (-data-dir, with write-ahead
// logging and crash recovery), by a one-shot import of a snapshot file
// (-load), by mining synthetic corpus videos at startup (-bootstrap), or
// later through POST /v1/videos. With -data-dir every registration — imported,
// bootstrapped or ingested — is journaled before it becomes visible, so a
// crash — OOM kill, power loss — loses no completed registration (an ingest
// job is durable once it reports done; a 202-accepted job that never ran
// can simply be resubmitted): the next boot replays the newest checkpoint
// snapshot plus the log tail, and a clean SIGINT/SIGTERM shutdown takes a
// final checkpoint. Without it the library lives in memory only.
//
// Usage:
//
//	classminerd -addr :8471 -data-dir ./data -bootstrap laparoscopy \
//	    -scale 0.4 -token s3cret=dr.lee:clinician:surgeon -anon public
//
// Then:
//
//	curl localhost:8471/healthz
//	curl localhost:8471/v1/videos
//	curl localhost:8471/v1/videos/laparoscopy
//	curl -X POST localhost:8471/v1/search \
//	    -d '{"video":"laparoscopy","shot":0,"k":5}'
//	curl localhost:8471/v1/events/dialog
//	curl -H 'Authorization: Bearer s3cret' -X POST localhost:8471/v1/videos \
//	    -d '{"corpus":"skin-examination","subcluster":"medicine","scale":0.4}'
//	curl -H 'Authorization: Bearer s3cret' -X POST localhost:8471/v1/videos \
//	    -d '{"corpus":"skin-examination","subcluster":"medicine","replace":true}'
//	curl -H 'Authorization: Bearer s3cret' -X DELETE localhost:8471/v1/videos/laparoscopy
//	curl -H 'Authorization: Bearer admin' -X POST localhost:8471/v1/admin/checkpoint
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"classminer"
	"classminer/internal/access"
	"classminer/internal/metrics"
	"classminer/internal/repl"
	"classminer/internal/server"
	"classminer/internal/shard"
	"classminer/internal/synth"
)

// tokenFlags accumulates repeated -token values of the form
// token=name:clearance[:role1|role2...].
type tokenFlags struct {
	users map[string]access.User
}

func (t *tokenFlags) String() string { return fmt.Sprintf("%d tokens", len(t.users)) }

func (t *tokenFlags) Set(v string) error {
	tok, spec, ok := strings.Cut(v, "=")
	if !ok || tok == "" {
		return fmt.Errorf("want token=name:clearance[:roles], got %q", v)
	}
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return fmt.Errorf("want token=name:clearance[:roles], got %q", v)
	}
	clearance, err := access.ParseClearance(parts[1])
	if err != nil {
		return err
	}
	u := access.User{Name: parts[0], Clearance: clearance}
	if len(parts) == 3 && parts[2] != "" {
		u.Roles = strings.Split(parts[2], "|")
	}
	if t.users == nil {
		t.users = map[string]access.User{}
	}
	t.users[tok] = u
	return nil
}

// config collects every flag; run reads nothing else.
type config struct {
	addr       string
	dataDir    string
	load       string
	bootstrap  string
	scale      float64
	seed       int64
	subcluster string
	anon       string
	workers    int
	queue      int
	cacheSize  int
	skipEvents bool
	metrics    bool
	pprof      bool
	tokens     map[string]access.User

	// shards is the router's shard count, chosen per boot; 0 means 1.
	shards int

	// replication
	role          string
	leaderURL     string
	replToken     string
	followerID    string
	replLagReady  int64
	replPinBudget int64
	walPressure   int64
	replLagBytes  int64

	// write-path index maintenance
	rebuildAfter    float64
	rebuildDebounce time.Duration

	// admission control / self-protection
	rate        float64
	burst       float64
	maxInflight int
	reqTimeout  time.Duration
	memBudget   int64

	// request tracing
	traceSample float64
	traceSlow   time.Duration
	traceRing   int

	// durable-mode tuning (only read when dataDir is set)
	fsync       string
	fsyncEvery  time.Duration
	segBytes    int64
	ckptBytes   int64
	ckptRecords int64
}

func main() {
	var tokens tokenFlags
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8471", "listen address")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durable data directory (write-ahead log + checkpoints; crash recovery on boot)")
	flag.StringVar(&cfg.load, "load", "", "import the videos of a library snapshot (JSON written by classminer -save) that are not already registered")
	flag.StringVar(&cfg.bootstrap, "bootstrap", "", "comma-separated corpus videos to mine at startup, or \"all\"")
	flag.Float64Var(&cfg.scale, "scale", 0.4, "bootstrap corpus scale")
	flag.Int64Var(&cfg.seed, "seed", 2003, "bootstrap corpus seed")
	flag.StringVar(&cfg.subcluster, "subcluster", "medicine", "concept subcluster for bootstrapped videos")
	flag.StringVar(&cfg.anon, "anon", "public", "clearance for unauthenticated requests (\"none\" to require a token)")
	flag.IntVar(&cfg.workers, "workers", 2, "ingest worker pool size")
	flag.IntVar(&cfg.queue, "queue", 8, "ingest queue depth")
	flag.IntVar(&cfg.cacheSize, "cache", 256, "search cache entries (negative disables)")
	flag.BoolVar(&cfg.skipEvents, "skip-events", false, "mine structure only (faster startup, no event queries on bootstrapped videos)")
	flag.BoolVar(&cfg.metrics, "metrics", true, "serve Prometheus metrics on GET /metrics (token-gated like the API)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ to Administrator-clearance callers")
	flag.Float64Var(&cfg.rebuildAfter, "rebuild-after", 0.25, "index staleness fraction (inserted+removed since the last full fit) that triggers a background rebuild")
	flag.DurationVar(&cfg.rebuildDebounce, "rebuild-debounce", 250*time.Millisecond, "how long the rebuilder waits for further mutations to coalesce into one rebuild")
	flag.Float64Var(&cfg.rate, "rate", 0, "per-token request rate limit in req/s, scaled by clearance tier (0 disables)")
	flag.Float64Var(&cfg.burst, "burst", 0, "per-token rate-limit burst (default 2x -rate)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 256, "concurrent search requests admitted; mutations and admin get narrower slices (negative disables)")
	flag.DurationVar(&cfg.reqTimeout, "req-timeout", 10*time.Second, "per-request deadline for search and mutation handlers; admin gets 4x (negative disables)")
	flag.Int64Var(&cfg.memBudget, "mem-budget", 0, "heap budget in bytes; over it the server degrades in stages — shed cache, pause rebuilds, reject ingest (0 disables)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 0, "fraction of requests traced end to end regardless of outcome (slow and 5xx requests are always kept)")
	flag.DurationVar(&cfg.traceSlow, "trace-slow", 500*time.Millisecond, "keep the trace of any request at least this slow (0 keeps every trace)")
	flag.IntVar(&cfg.traceRing, "trace-ring", 256, "recent traces retained for GET /debug/traces")
	flag.StringVar(&cfg.fsync, "fsync", "always", "WAL fsync policy: always, interval or off")
	flag.DurationVar(&cfg.fsyncEvery, "fsync-interval", 100*time.Millisecond, "background fsync period under -fsync=interval")
	flag.Int64Var(&cfg.segBytes, "segment-bytes", 4<<20, "WAL segment rotation size")
	flag.Int64Var(&cfg.ckptBytes, "checkpoint-bytes", 64<<20, "auto-checkpoint — the one way log is reclaimed — once this much WAL accumulates (negative disables)")
	flag.Int64Var(&cfg.ckptRecords, "checkpoint-records", 10000, "auto-checkpoint once this many WAL records accumulate (negative disables)")
	flag.IntVar(&cfg.shards, "shards", 0, "in-memory library shards, each with its own lock, index and rebuild state over the one -data-dir log (a per-boot choice: any count opens any data dir; 0 = 1)")
	flag.StringVar(&cfg.role, "role", "leader", "replication role: leader (serves /v1/repl/* when durable) or follower (replicates from -leader-url, read-only until promoted)")
	flag.StringVar(&cfg.leaderURL, "leader-url", "", "leader base URL a follower replicates from (required with -role follower)")
	flag.StringVar(&cfg.replToken, "repl-token", "", "bearer token the follower presents to the leader (needs administrator clearance there)")
	flag.StringVar(&cfg.followerID, "follower-id", "follower", "this follower's id in the leader's pin table; keep it stable across restarts")
	flag.Int64Var(&cfg.replLagReady, "repl-lag-ready", 0, "record lag at or under which a follower's /readyz reports ready")
	flag.Int64Var(&cfg.replPinBudget, "repl-pin-budget-bytes", 0, "max unshipped WAL bytes a follower's pin may hold against checkpoint pruning before eviction (0 = 512 MiB default, negative disables)")
	flag.Int64Var(&cfg.walPressure, "wal-pressure-bytes", 0, "shed ingest with 503 once un-checkpointed WAL bytes exceed this (0 disables)")
	flag.Int64Var(&cfg.replLagBytes, "repl-lag-bytes", 0, "shed ingest with 503 once the worst follower's replication lag exceeds this many bytes (0 disables)")
	flag.Var(&tokens, "token", "token=name:clearance[:role1|role2] (repeatable)")
	flag.Parse()
	cfg.tokens = tokens.users

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "classminerd:", err)
		os.Exit(1)
	}
}

// syncPolicy maps the -fsync flag to a WAL policy.
func syncPolicy(name string) (s classminer.DurableOptions, err error) {
	switch name {
	case "always", "":
		s.Sync = classminer.SyncAlways
	case "interval":
		s.Sync = classminer.SyncInterval
	case "off", "never":
		s.Sync = classminer.SyncNever
	default:
		err = fmt.Errorf("unknown -fsync policy %q (want always, interval or off)", name)
	}
	return s, err
}

// validate is every check that needs only the flags. run makes it before its
// first side effect, so a mistyped command line fails without taking the
// data-dir lock, replaying the log or mining the bootstrap corpus.
func validate(cfg config) error {
	if cfg.role != "leader" && cfg.role != "follower" {
		return fmt.Errorf("unknown -role %q (want leader or follower)", cfg.role)
	}
	if cfg.role == "follower" {
		if cfg.dataDir == "" {
			return fmt.Errorf("-role follower requires -data-dir: a follower journals every replicated record so it can be promoted")
		}
		if cfg.leaderURL == "" {
			return fmt.Errorf("-role follower requires -leader-url")
		}
	}
	if cfg.shards < 0 || cfg.shards > shard.MaxShards {
		return fmt.Errorf("-shards must be in [0,%d], got %d", shard.MaxShards, cfg.shards)
	}
	_, err := syncPolicy(cfg.fsync)
	return err
}

func run(cfg config) error {
	if err := validate(cfg); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "classminerd: ", log.LstdFlags)

	logger.Printf("training analyzer (skipEvents=%v)...", cfg.skipEvents)
	analyzer, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: cfg.skipEvents})
	if err != nil {
		return err
	}

	// One registry spans the process: the WAL engine registers its series at
	// Recover, the server adds the HTTP/cache/library ones at New, and
	// GET /metrics exposes them all.
	var reg *metrics.Registry
	if cfg.metrics {
		reg = metrics.NewRegistry()
	}

	lib, err := buildLibrary(logger, analyzer, cfg, reg)
	if err != nil {
		return err
	}
	defer lib.Close()

	// Any durable node exports its WAL to followers — a leader serves them
	// directly, and a follower that gets promoted starts serving its own
	// downstream replicas without a restart.
	var hub *repl.Hub
	if lib.Durable() {
		hub, err = repl.NewHub(lib.Engine(), reg, logger.Printf)
		if err != nil {
			return err
		}
	}
	var follower *repl.Follower
	if cfg.role == "follower" {
		follower, err = repl.Start(repl.Options{
			LeaderURL:       strings.TrimSuffix(cfg.leaderURL, "/"),
			Token:           cfg.replToken,
			ID:              cfg.followerID,
			Dir:             cfg.dataDir,
			Applier:         lib,
			ReadyLagRecords: cfg.replLagReady,
			Metrics:         reg,
			Logf:            logger.Printf,
		})
		if err != nil {
			return err
		}
		defer follower.Close()
		logger.Printf("replicating from %s as %q", cfg.leaderURL, cfg.followerID)
	}

	opts := server.Options{
		Tokens:           cfg.tokens,
		CacheSize:        cfg.cacheSize,
		Workers:          cfg.workers,
		QueueDepth:       cfg.queue,
		RebuildBudget:    cfg.rebuildAfter,
		RebuildDebounce:  cfg.rebuildDebounce,
		Metrics:          reg,
		DisableMetrics:   !cfg.metrics,
		EnablePprof:      cfg.pprof,
		Rate:             cfg.rate,
		Burst:            cfg.burst,
		MaxInflight:      cfg.maxInflight,
		ReqTimeout:       cfg.reqTimeout,
		MemBudget:        cfg.memBudget,
		TraceSample:      cfg.traceSample,
		TraceSlow:        cfg.traceSlow,
		TraceRing:        cfg.traceRing,
		ReplHub:          hub,
		Follower:         follower,
		LeaderURL:        strings.TrimSuffix(cfg.leaderURL, "/"),
		WALPressureBytes: cfg.walPressure,
		ReplLagBytes:     cfg.replLagBytes,
		Logf:             logger.Printf,
	}
	if cfg.traceSlow == 0 {
		// The flag's "0 keeps every trace" spelling maps to the Options'
		// negative spelling (Options zero means "use the default").
		opts.TraceSlow = -1
	}
	if cfg.anon != "" && cfg.anon != "none" {
		clearance, err := access.ParseClearance(cfg.anon)
		if err != nil {
			return err
		}
		opts.Anonymous = &access.User{Name: "anonymous", Clearance: clearance}
	}
	srv := server.New(lib, opts)
	defer srv.Close()

	// The transport timeouts are the slowloris defence: a client that
	// dribbles its headers, trickles a request body, or never reads its
	// response occupies a connection, not a goroutine forever. WriteTimeout
	// is sized above the admin request deadline (4x -req-timeout) so the
	// application-level 503 always beats the transport cutting the wire.
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("serving %d videos on %s", lib.Stats().Videos, cfg.addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	srv.Close() // drain in-flight ingest jobs before checkpointing
	if lib.Durable() {
		// A clean shutdown is a free checkpoint: the next boot loads one
		// snapshot and replays an empty tail.
		if err := lib.Checkpoint(); err != nil {
			logger.Printf("shutdown checkpoint: %v", err)
		}
	}
	return nil
}

// buildLibrary assembles the serving library: recover the durable data
// directory (or start empty in memory), import a snapshot file, mine
// bootstrap corpus videos, and build the index. Every registration into a
// durable library — imported, bootstrapped or later ingested — is journaled.
func buildLibrary(logger *log.Logger, analyzer *classminer.Analyzer, cfg config, reg *metrics.Registry) (*shard.Library, error) {
	var lib *shard.Library
	if cfg.dataDir != "" {
		wopts, err := syncPolicy(cfg.fsync)
		if err != nil {
			return nil, err
		}
		wopts.SyncEvery = cfg.fsyncEvery
		wopts.SegmentBytes = cfg.segBytes
		wopts.CheckpointBytes = cfg.ckptBytes
		wopts.CheckpointRecords = cfg.ckptRecords
		wopts.ReplPinBudgetBytes = cfg.replPinBudget
		wopts.Metrics = reg
		wopts.Logf = logger.Printf
		start := time.Now()
		lib, err = shard.Recover(cfg.dataDir, cfg.shards, analyzer, wopts)
		if err != nil {
			return nil, fmt.Errorf("recovering %s: %w", cfg.dataDir, err)
		}
		logger.Printf("recovered %d videos from %s (%d shards, %v)",
			lib.Stats().Videos, cfg.dataDir, lib.ShardCount(), time.Since(start).Round(time.Millisecond))
	} else {
		var err error
		if lib, err = shard.New(analyzer, max(cfg.shards, 1)); err != nil {
			return nil, err
		}
	}

	if cfg.load != "" {
		n, err := importSnapshot(lib, cfg.load)
		if err != nil {
			lib.Close()
			return nil, fmt.Errorf("loading %s: %w", cfg.load, err)
		}
		logger.Printf("imported %d videos from %s", n, cfg.load)
	}

	if cfg.bootstrap != "" {
		names := strings.Split(cfg.bootstrap, ",")
		if cfg.bootstrap == "all" {
			names = synth.CorpusNames()
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			if lib.Video(name) != nil {
				continue // already recovered or imported
			}
			script := synth.CorpusScript(name, cfg.scale, cfg.seed)
			if script == nil {
				lib.Close()
				return nil, fmt.Errorf("unknown corpus video %q (have %v)", name, synth.CorpusNames())
			}
			v, err := synth.Generate(synth.DefaultConfig(), script, cfg.seed)
			if err != nil {
				lib.Close()
				return nil, err
			}
			logger.Printf("mining %q (%d frames)...", name, len(v.Frames))
			if _, err := lib.AddVideo(v, cfg.subcluster); err != nil {
				lib.Close()
				return nil, err
			}
		}
	}

	if lib.Size() > 0 && lib.IndexStale() {
		start := time.Now()
		if err := lib.BuildIndex(); err != nil {
			lib.Close()
			return nil, err
		}
		logger.Printf("index built over %d shots (%v)",
			lib.Stats().IndexedShots, time.Since(start).Round(time.Millisecond))
	}
	return lib, nil
}

// importSnapshot registers every video of a snapshot file that the library
// does not already hold, reporting how many were new. On a durable library
// the imports are journaled like any registration, so -load is the one-shot
// migration of a snapshot into -data-dir.
func importSnapshot(lib *shard.Library, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return lib.ImportSnapshot(f, true)
}
