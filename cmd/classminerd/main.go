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
// logging and crash recovery), by mining synthetic corpus videos at startup
// (-bootstrap), or later through POST /v1/videos. With -data-dir every
// registration — bootstrapped or ingested — is journaled and fsynced before
// it becomes visible, so a crash — OOM kill, power loss — loses no completed
// registration (an ingest job is durable once it reports done; a
// 202-accepted job that never ran can simply be resubmitted): the next boot
// replays the newest checkpoint snapshot plus the log tail, and a clean
// SIGINT/SIGTERM shutdown takes a final checkpoint. Without it the library
// lives in memory only.
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
	"slices"
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
	bootstrap  string
	scale      float64
	seed       int64
	subcluster string
	anon       string
	workers    int
	queue      int
	skipEvents bool
	pprof      bool
	tokens     map[string]access.User

	// shards is the router's shard count, chosen per boot; 0 means 1.
	shards int

	// replication
	role         string
	leaderURL    string
	replToken    string
	followerID   string
	walPressure  int64
	replLagBytes int64

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
}

func main() {
	var tokens tokenFlags
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8471", "listen address")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durable data directory (write-ahead log + checkpoints; crash recovery on boot)")
	flag.StringVar(&cfg.bootstrap, "bootstrap", "", "comma-separated corpus videos to mine at startup, or \"all\"")
	flag.Float64Var(&cfg.scale, "scale", 0.4, "bootstrap corpus scale")
	flag.Int64Var(&cfg.seed, "seed", 2003, "bootstrap corpus seed")
	flag.StringVar(&cfg.subcluster, "subcluster", "medicine", "concept subcluster for bootstrapped videos")
	flag.StringVar(&cfg.anon, "anon", "public", "clearance for unauthenticated requests (\"none\" to require a token)")
	flag.IntVar(&cfg.workers, "workers", 2, "ingest worker pool size")
	flag.IntVar(&cfg.queue, "queue", 8, "ingest queue depth")
	flag.BoolVar(&cfg.skipEvents, "skip-events", false, "mine structure only (faster startup, no event queries on bootstrapped videos)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ to Administrator-clearance callers")
	flag.Float64Var(&cfg.rate, "rate", 0, "per-token request rate limit in req/s, scaled by clearance tier (0 disables)")
	flag.Float64Var(&cfg.burst, "burst", 0, "per-token rate-limit burst (default 2x -rate)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 256, "concurrent search requests admitted; mutations and admin get narrower slices (negative disables)")
	flag.DurationVar(&cfg.reqTimeout, "req-timeout", 10*time.Second, "per-request deadline for search and mutation handlers; admin gets 4x (negative disables)")
	flag.Int64Var(&cfg.memBudget, "mem-budget", 0, "heap budget in bytes; over it the server degrades in stages — shed cache, pause rebuilds, reject ingest (0 disables)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 0, "fraction of requests traced end to end regardless of outcome (slow and 5xx requests are always kept)")
	flag.DurationVar(&cfg.traceSlow, "trace-slow", 500*time.Millisecond, "keep the trace of any request at least this slow (0 keeps every trace)")
	flag.IntVar(&cfg.traceRing, "trace-ring", 256, "recent traces retained for GET /debug/traces")
	flag.IntVar(&cfg.shards, "shards", 0, "in-memory library shards, each with its own lock, index and rebuild state over the one -data-dir log (a per-boot choice: any count opens any data dir; 0 = 1)")
	flag.StringVar(&cfg.role, "role", "leader", "replication role: leader (serves /v1/repl/* when durable) or follower (replicates from -leader-url, read-only until promoted)")
	flag.StringVar(&cfg.leaderURL, "leader-url", "", "leader base URL a follower replicates from (required with -role follower)")
	flag.StringVar(&cfg.replToken, "repl-token", "", "bearer token the follower presents to the leader (needs administrator clearance there)")
	flag.StringVar(&cfg.followerID, "follower-id", "follower", "this follower's id in the leader's pin table; keep it stable across restarts")
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

// anonymous is the user -anon names, or nil when unauthenticated requests
// need a token ("" or "none").
func anonymous(spec string) (*access.User, error) {
	if spec == "" || spec == "none" {
		return nil, nil
	}
	clearance, err := access.ParseClearance(spec)
	if err != nil {
		return nil, err
	}
	return &access.User{Name: "anonymous", Clearance: clearance}, nil
}

// bootstrapNames is the corpus videos -bootstrap names: a comma-separated
// list, or "all". Every name must be a corpus video.
func bootstrapNames(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	if spec == "all" {
		return synth.CorpusNames(), nil
	}
	names := strings.Split(spec, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if !slices.Contains(synth.CorpusNames(), names[i]) {
			return nil, fmt.Errorf("unknown corpus video %q (have %v)", names[i], synth.CorpusNames())
		}
	}
	return names, nil
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
	if _, err := anonymous(cfg.anon); err != nil {
		return err
	}
	_, err := bootstrapNames(cfg.bootstrap)
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
	reg := metrics.NewRegistry()

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
			LeaderURL: strings.TrimSuffix(cfg.leaderURL, "/"),
			Token:     cfg.replToken,
			ID:        cfg.followerID,
			Dir:       cfg.dataDir,
			Applier:   lib,
			Metrics:   reg,
			Logf:      logger.Printf,
		})
		if err != nil {
			return err
		}
		defer follower.Close()
		logger.Printf("replicating from %s as %q", cfg.leaderURL, cfg.followerID)
	}

	opts := server.Options{
		Tokens:           cfg.tokens,
		Workers:          cfg.workers,
		QueueDepth:       cfg.queue,
		Metrics:          reg,
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
	if opts.Anonymous, err = anonymous(cfg.anon); err != nil {
		return err
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
// directory (or start empty in memory), mine bootstrap corpus videos, and
// build the index. Every registration into a durable library — bootstrapped
// or later ingested — is journaled.
func buildLibrary(logger *log.Logger, analyzer *classminer.Analyzer, cfg config, reg *metrics.Registry) (*shard.Library, error) {
	names, err := bootstrapNames(cfg.bootstrap)
	if err != nil {
		return nil, err
	}
	var lib *shard.Library
	if cfg.dataDir != "" {
		start := time.Now()
		wopts := classminer.DurableOptions{Metrics: reg, Logf: logger.Printf}
		if lib, err = shard.Recover(cfg.dataDir, cfg.shards, analyzer, wopts); err != nil {
			return nil, fmt.Errorf("recovering %s: %w", cfg.dataDir, err)
		}
		logger.Printf("recovered %d videos from %s (%d shards, %v)",
			lib.Stats().Videos, cfg.dataDir, lib.ShardCount(), time.Since(start).Round(time.Millisecond))
	} else if lib, err = shard.New(analyzer, max(cfg.shards, 1)); err != nil {
		return nil, err
	}

	for _, name := range names {
		if lib.Video(name) != nil {
			continue // already recovered
		}
		v, err := synth.Generate(synth.DefaultConfig(), synth.CorpusScript(name, cfg.scale, cfg.seed), cfg.seed)
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
