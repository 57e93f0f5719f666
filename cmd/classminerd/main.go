// Command classminerd serves a mined video library over HTTP — the online
// counterpart of the paper's §6 database: hierarchical k-NN search, mined-
// event scene queries, content-structure browsing and scalable-skimming
// metadata, all behind multilevel access control.
//
// The daemon indexes; it does not mine. Mining is offline, as in the paper:
// cmd/classminer -save writes a POST /v1/videos body, and the daemon
// journals, indexes and serves what it is sent.
//
// The daemon serves one library. It is populated from a durable data
// directory (-data-dir, with write-ahead logging and crash recovery) and
// through POST /v1/videos. With -data-dir
// every registration is journaled and fsynced before it becomes visible, so
// a crash — OOM kill, power loss — loses no acknowledged registration (an
// ingest is answered only once it is durable and indexed; one that got no
// answer can simply be resubmitted): the next boot replays the newest
// checkpoint snapshot plus the log tail, and a clean SIGINT/SIGTERM shutdown
// takes a final checkpoint. Without it the library lives in memory only.
//
// Usage:
//
//	classminerd -addr :8471 -data-dir ./data \
//	    -token s3cret=dr.lee:clinician:surgeon -anon public
//
// Then:
//
//	go run ./cmd/classminer -video laparoscopy -scale 0.4 -save lap.json
//	curl -H 'Authorization: Bearer s3cret' -X POST localhost:8471/v1/videos \
//	    --data-binary @lap.json
//	curl localhost:8471/healthz
//	curl localhost:8471/v1/videos
//	curl localhost:8471/v1/videos/laparoscopy
//	curl -X POST localhost:8471/v1/search \
//	    -d '{"video":"laparoscopy","shot":0,"k":5}'
//	curl localhost:8471/v1/events/dialog
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

// config collects every flag but the four ignored ones (-workers, -queue,
// -skip-events and -shards); run reads nothing else.
type config struct {
	addr    string
	dataDir string
	anon    string
	pprof   bool
	tokens  map[string]access.User

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
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "classminerd:", err)
		os.Exit(1)
	}
}

// parseFlags defines the daemon's flags on fs and parses args with them.
func parseFlags(fs *flag.FlagSet, args []string) (config, error) {
	var tokens tokenFlags
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":8471", "listen address")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "durable data directory (write-ahead log + checkpoints; crash recovery on boot)")
	fs.StringVar(&cfg.anon, "anon", "public", "clearance for unauthenticated requests (\"none\" to require a token)")
	// Kept only because the frozen benchmark (cmd/loadgen) passes them;
	// ROADMAP item 1(d) deletes them.
	fs.Int("workers", 0, "ignored: an ingest runs on its own request")
	fs.Int("queue", 0, "ignored: an ingest runs on its own request")
	fs.Bool("skip-events", false, "ignored: the daemon mines nothing")
	fs.Int("shards", 0, "ignored: the daemon serves one library")
	fs.BoolVar(&cfg.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ to Administrator-clearance callers")
	fs.Float64Var(&cfg.rate, "rate", 0, "per-token request rate limit in req/s, scaled by clearance tier (0 disables)")
	fs.Float64Var(&cfg.burst, "burst", 0, "per-token rate-limit burst (default 2x -rate)")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 256, "concurrent search requests admitted; mutations and admin get narrower slices (negative disables)")
	fs.DurationVar(&cfg.reqTimeout, "req-timeout", 10*time.Second, "per-request deadline for search and mutation handlers; admin gets 4x (negative disables)")
	fs.Int64Var(&cfg.memBudget, "mem-budget", 0, "heap budget in bytes; over it the server degrades in stages — shed cache, pause rebuilds, reject ingest (0 disables)")
	fs.Float64Var(&cfg.traceSample, "trace-sample", 0, "fraction of requests traced end to end regardless of outcome (slow and 5xx requests are always kept)")
	fs.DurationVar(&cfg.traceSlow, "trace-slow", 500*time.Millisecond, "keep the trace of any request at least this slow (0 keeps every trace)")
	fs.IntVar(&cfg.traceRing, "trace-ring", 256, "recent traces retained for GET /debug/traces")
	fs.StringVar(&cfg.role, "role", "leader", "replication role: leader (serves /v1/repl/* when durable) or follower (replicates from -leader-url, read-only until promoted)")
	fs.StringVar(&cfg.leaderURL, "leader-url", "", "leader base URL a follower replicates from (required with -role follower)")
	fs.StringVar(&cfg.replToken, "repl-token", "", "bearer token the follower presents to the leader (needs administrator clearance there)")
	fs.StringVar(&cfg.followerID, "follower-id", "follower", "this follower's id in the leader's pin table; keep it stable across restarts")
	fs.Int64Var(&cfg.walPressure, "wal-pressure-bytes", 0, "shed ingest with 503 once un-checkpointed WAL bytes exceed this (0 disables)")
	fs.Int64Var(&cfg.replLagBytes, "repl-lag-bytes", 0, "shed ingest with 503 once the worst follower's replication lag exceeds this many bytes (0 disables)")
	fs.Var(&tokens, "token", "token=name:clearance[:role1|role2] (repeatable)")
	err := fs.Parse(args)
	cfg.tokens = tokens.users
	return cfg, err
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

// validate is every check that needs only the flags. run makes it before its
// first side effect, so a mistyped command line fails without taking the
// data-dir lock or replaying the log.
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
	_, err := anonymous(cfg.anon)
	return err
}

func run(cfg config) error {
	if err := validate(cfg); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "classminerd: ", log.LstdFlags)

	// One registry spans the process: the WAL engine registers its series at
	// Recover, the server adds the HTTP/cache/library ones at New, and
	// GET /metrics exposes them all.
	reg := metrics.NewRegistry()

	lib, err := buildLibrary(logger, cfg, reg)
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
	srv.Close()
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
// directory (or start empty in memory) and build the index over what it
// holds. Every later registration into a durable library is journaled.
func buildLibrary(logger *log.Logger, cfg config, reg *metrics.Registry) (*classminer.Library, error) {
	if cfg.dataDir == "" {
		return classminer.NewLibrary(nil), nil
	}
	start := time.Now()
	wopts := classminer.DurableOptions{Metrics: reg, Logf: logger.Printf}
	lib, err := classminer.Recover(cfg.dataDir, nil, wopts)
	if err != nil {
		return nil, fmt.Errorf("recovering %s: %w", cfg.dataDir, err)
	}
	logger.Printf("recovered %d videos from %s (%v)",
		lib.Stats().Videos, cfg.dataDir, time.Since(start).Round(time.Millisecond))

	if lib.Size() > 0 && lib.IndexStale() {
		if reg != nil {
			lib.Instrument(reg) // before the boot fit, so index_fit_seconds sees it
		}
		start = time.Now()
		if err := lib.BuildIndexCtx(context.Background()); err != nil {
			lib.Close()
			return nil, err
		}
		logger.Printf("index built over %d shots (%v)",
			lib.Stats().IndexedShots, time.Since(start).Round(time.Millisecond))
	}
	return lib, nil
}
