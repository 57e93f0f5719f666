// Package shard is the library the daemon serves: a router over N >= 1
// independent *classminer.Library shards — each with its own WAL engine,
// feature matrix, incremental index and rebuild bookkeeping — that keeps the
// single-library API. Mutations route to exactly one shard by a
// deterministic hash of the video name (content-based placement: the same
// name always lands on the same shard, so duplicate detection and
// replacement stay shard-local), and searches scatter-gather: every
// non-empty shard ranks its own top-k, and the router merges the exact
// distances the shards report (internal/index.MergeHits) under the
// (distance, video name, shot index) total order, which makes results
// deterministic and independent of the shard count.
//
// Every per-library cost — group commit, checkpoint, compaction, index
// rebuild, lock contention — is per-shard and therefore parallel at N > 1;
// at N = 1 the router adds a name hash and a sort of k hits to what the one
// shard does. Subcluster and ACL policy is replicated to all shards (Protect
// fans out), so per-shard search filtering applies exactly the rules the
// router holds.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"classminer"
	"classminer/internal/metrics"
	"classminer/internal/store"
	"classminer/internal/wal"
)

// Library routes the single-library API across N shards. It satisfies the
// same serving contract as *classminer.Library (internal/server.Library),
// so the server is indifferent to the shard count.
type Library struct {
	shards []*classminer.Library
}

// New creates an in-memory (non-durable) sharded library.
func New(a *classminer.Analyzer, n int) (*Library, error) {
	if err := checkShardCount(n); err != nil {
		return nil, err
	}
	shards := make([]*classminer.Library, n)
	for i := range shards {
		shards[i] = classminer.NewLibrary(a)
	}
	return &Library{shards: shards}, nil
}

// ShardCount reports how many shards the router owns.
func (l *Library) ShardCount() int { return len(l.shards) }

// ShardAt exposes shard i directly. Replication addresses shards by index —
// the leader's shard i stream applies to the follower's shard i, because
// content-based placement makes the partitioning identical on both sides.
func (l *Library) ShardAt(i int) *classminer.Library { return l.shards[i] }

// Engines returns every shard's WAL engine, indexed by shard (nil entries
// when the library is not durable). The replication hub ships one stream
// per engine.
func (l *Library) Engines() []*wal.Engine {
	engines := make([]*wal.Engine, len(l.shards))
	for i, sh := range l.shards {
		engines[i] = sh.Engine()
	}
	return engines
}

// MaxShards bounds the shard count to something a single node can own;
// beyond it a flag typo is far more likely than a real deployment.
const MaxShards = 256

func checkShardCount(n int) error {
	if n < 1 || n > MaxShards {
		return fmt.Errorf("shard: shard count %d out of range [1,%d]", n, MaxShards)
	}
	return nil
}

// manifestName is the parent-dir file that pins a multi-shard data dir's
// shard count. Its presence selects the shard-<i>/ subdirectory layout; a
// data dir without it is one shard living at the top level.
const manifestName = "SHARDS"

type shardsManifest struct {
	Shards int `json:"shards"`
}

// recordedCount reports the shard count in dir's SHARDS manifest, or 0 when
// there is none (including when dir does not exist yet).
func recordedCount(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var m shardsManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, fmt.Errorf("shard: corrupt %s manifest in %s: %w", manifestName, dir, err)
	}
	if err := checkShardCount(m.Shards); err != nil {
		return 0, fmt.Errorf("shard: corrupt %s manifest in %s: %w", manifestName, dir, err)
	}
	return m.Shards, nil
}

// hasTopLevelWAL reports whether dir already holds one shard's WAL files at
// its top level (MANIFEST appears only after the first checkpoint, so the
// lock file and log segments count too).
func hasTopLevelWAL(dir string) bool {
	for _, name := range []string{"MANIFEST", "LOCK"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	return len(segs) > 0
}

func writeManifest(dir string, n int) error {
	return store.WriteFileAtomic(filepath.Join(dir, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(shardsManifest{Shards: n})
	})
}

// shardDir returns the data subdirectory of shard i under parent dir.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, "shard-"+strconv.Itoa(i))
}

// Recover opens (or creates) the durable library under dir, booting its
// shards in parallel. n = 0 means "what the dir records, else 1". One shard
// is a classminer data dir at the top level of dir — MANIFEST, lock,
// snapshots and log segments exactly where classminer.Recover puts them, no
// SHARDS file — so a dir written before the router existed is simply a
// one-shard dir. More shards live in shard-<i>/ subdirectories, each a full
// classminer data dir, under a SHARDS manifest that pins the count at
// creation: n must match it on reopen, and a dir that already holds
// top-level WAL files cannot be resharded by asking for n > 1.
func Recover(dir string, n int, a *classminer.Analyzer, opts classminer.DurableOptions) (*Library, error) {
	recorded, err := recordedCount(dir)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		n = max(recorded, 1)
	}
	if err := checkShardCount(n); err != nil {
		return nil, err
	}
	if recorded > 0 && n != recorded {
		return nil, fmt.Errorf("shard: data dir %s holds %d shards but %d were requested (the shard count is fixed when the dir is created)", dir, recorded, n)
	}
	dirs := []string{dir}
	if recorded > 0 || n > 1 {
		if recorded == 0 {
			if hasTopLevelWAL(dir) {
				return nil, fmt.Errorf("shard: %s holds one shard (top-level WAL files) but %d were requested (the shard count is fixed when the dir is created)", dir, n)
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			if err := writeManifest(dir, n); err != nil {
				return nil, err
			}
		}
		dirs = make([]string, n)
		for i := range dirs {
			dirs[i] = shardDir(dir, i)
		}
	}

	shards := make([]*classminer.Library, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, sdir := range dirs {
		wg.Add(1)
		go func(i int, sdir string) {
			defer wg.Done()
			o := opts
			if logf := opts.Logf; logf != nil && sdir != dir {
				prefix := filepath.Base(sdir) + ": "
				o.Logf = func(format string, args ...any) { logf(prefix+format, args...) }
			}
			lib, err := classminer.Recover(sdir, a, o)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			shards[i] = lib
		}(i, sdir)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, sh := range shards {
			if sh != nil {
				sh.Close()
			}
		}
		return nil, err
	}
	l := &Library{shards: shards}
	if opts.Metrics != nil {
		l.instrumentWAL(opts.Metrics)
	}
	return l, nil
}

// fnv32Offset/fnv32Prime: FNV-1a, inlined so routing never allocates.
const (
	fnv32Offset = 2166136261
	fnv32Prime  = 16777619
)

// shardIndex is the content-based placement function: FNV-1a over the video
// name, modulo the shard count. Deterministic, so the same name always
// routes to the same shard across processes and restarts.
func shardIndex(name string, n int) int {
	h := uint32(fnv32Offset)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= fnv32Prime
	}
	return int(h % uint32(n))
}

// owner returns the shard responsible for the named video.
func (l *Library) owner(name string) *classminer.Library {
	return l.shards[shardIndex(name, len(l.shards))]
}

// Owner exposes the placement decision for tests and tooling.
func (l *Library) Owner(name string) int { return shardIndex(name, len(l.shards)) }

// ---- Mutations: route to exactly one shard's WAL. ----

// AddVideo mines and registers a video on its owning shard.
func (l *Library) AddVideo(v *classminer.Video, subcluster string) (*classminer.Result, error) {
	return l.AddVideoCtx(context.Background(), v, subcluster)
}

// AddVideoCtx mines and registers a video on its owning shard.
func (l *Library) AddVideoCtx(ctx context.Context, v *classminer.Video, subcluster string) (*classminer.Result, error) {
	if v == nil {
		return nil, fmt.Errorf("classminer: nil video")
	}
	return l.owner(v.Name).AddVideoCtx(ctx, v, subcluster)
}

// AddResult registers a pre-mined result on its owning shard.
func (l *Library) AddResult(res *classminer.Result, subcluster string) error {
	return l.AddResultCtx(context.Background(), res, subcluster)
}

// AddResultCtx registers a pre-mined result on its owning shard.
func (l *Library) AddResultCtx(ctx context.Context, res *classminer.Result, subcluster string) error {
	if res == nil || res.Video == nil {
		return fmt.Errorf("classminer: nil result")
	}
	return l.owner(res.Video.Name).AddResultCtx(ctx, res, subcluster)
}

// ReplaceResultAsCtx replaces a registration on its owning shard.
func (l *Library) ReplaceResultAsCtx(ctx context.Context, u classminer.User, res *classminer.Result, subcluster string) error {
	if res == nil || res.Video == nil {
		return fmt.Errorf("classminer: nil result")
	}
	return l.owner(res.Video.Name).ReplaceResultAsCtx(ctx, u, res, subcluster)
}

// ReplaceVideoAsCtx re-mines and replaces a video on its owning shard.
func (l *Library) ReplaceVideoAsCtx(ctx context.Context, u classminer.User, v *classminer.Video, subcluster string) (*classminer.Result, error) {
	if v == nil {
		return nil, fmt.Errorf("classminer: nil video")
	}
	return l.owner(v.Name).ReplaceVideoAsCtx(ctx, u, v, subcluster)
}

// DeleteVideo unregisters a video from its owning shard.
func (l *Library) DeleteVideo(name string) error {
	return l.owner(name).DeleteVideo(name)
}

// DeleteVideoAsCtx unregisters a video from its owning shard, policy-checked.
func (l *Library) DeleteVideoAsCtx(ctx context.Context, u classminer.User, name string) error {
	return l.owner(name).DeleteVideoAsCtx(ctx, u, name)
}

// ---- Policy: replicated so shard-local filtering equals router intent. ----

// Protect adds an access rule to every shard, keeping per-shard search
// filtering identical to what a single library would enforce.
func (l *Library) Protect(r classminer.Rule) {
	for _, sh := range l.shards {
		sh.Protect(r)
	}
}

// Allowed delegates to shard 0; policy is identical on every shard.
func (l *Library) Allowed(u classminer.User, path []string) bool {
	return l.shards[0].Allowed(u, path)
}

// HasSubcluster delegates to shard 0 (the hierarchy is shared and static).
func (l *Library) HasSubcluster(name string) bool { return l.shards[0].HasSubcluster(name) }

// ConceptPath delegates to shard 0 (the hierarchy is shared and static).
func (l *Library) ConceptPath(name string) []string { return l.shards[0].ConceptPath(name) }

// ---- Index lifecycle: fan out. ----

// BuildIndex fits every shard's index that is not already current.
func (l *Library) BuildIndex() error { return l.BuildIndexCtx(context.Background()) }

// BuildIndexCtx refits, in parallel, every non-empty shard whose index is
// stale or carries an incremental overlay; a shard whose index is a current
// full fit is skipped, because refitting it is bit-identical by
// construction. Matching the single-library contract, an entirely empty
// library is an error.
func (l *Library) BuildIndexCtx(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(l.shards))
	empty := true
	for i, sh := range l.shards {
		if sh.Size() == 0 {
			continue
		}
		empty = false
		if !sh.IndexStale() && sh.IndexStaleness() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sh *classminer.Library) {
			defer wg.Done()
			if err := sh.BuildIndexCtx(ctx); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, sh)
	}
	wg.Wait()
	if empty {
		return fmt.Errorf("classminer: no videos registered")
	}
	return errors.Join(errs...)
}

// RebuildNeeded reports whether any non-empty shard's overlay exceeds the
// budget; the server's debounced rebuilder treats the router as one unit
// and BuildIndexCtx refits only the shards that drifted past staleness 0.
func (l *Library) RebuildNeeded(budget float64) bool {
	for _, sh := range l.shards {
		if sh.Size() > 0 && sh.RebuildNeeded(budget) {
			return true
		}
	}
	return false
}

// IndexStale reports whether any non-empty shard serves a stale index (an
// entirely empty library is stale, matching the single-library contract).
func (l *Library) IndexStale() bool {
	empty := true
	for _, sh := range l.shards {
		if sh.Size() == 0 {
			continue
		}
		empty = false
		if sh.IndexStale() {
			return true
		}
	}
	return empty
}

// IndexStaleness is the worst (max) overlay fraction across shards.
func (l *Library) IndexStaleness() float64 {
	var max float64
	for _, sh := range l.shards {
		if s := sh.IndexStaleness(); s > max {
			max = s
		}
	}
	return max
}

// ---- Reads and aggregation. ----

// Generation sums the shard generations: any mutation anywhere advances it,
// so generation-keyed caches invalidate exactly as with one library.
func (l *Library) Generation() int64 {
	var g int64
	for _, sh := range l.shards {
		g += sh.Generation()
	}
	return g
}

// Stats aggregates across shards — counters summed, staleness is the max
// (worst shard) — and, when there is more than one shard, carries the
// per-shard breakdown in Shards (with one shard the aggregate is the shard).
// The WAL block sums every counter (total replay cost) and reports the
// minimum checkpoint generation (the weakest shard's durability progress).
func (l *Library) Stats() classminer.LibraryStats {
	var agg classminer.LibraryStats
	var wal classminer.WALStats
	durable := true
	for i, sh := range l.shards {
		st := sh.Stats()
		agg.Videos += st.Videos
		agg.Shots += st.Shots
		agg.IndexedShots += st.IndexedShots
		if st.Shots > 0 && st.IndexStale {
			agg.IndexStale = true
		}
		if st.IndexStaleness > agg.IndexStaleness {
			agg.IndexStaleness = st.IndexStaleness
		}
		agg.Generation += st.Generation
		agg.DeadRows += st.DeadRows
		agg.IndexFits += st.IndexFits
		agg.IndexFitsDropped += st.IndexFitsDropped
		if st.WAL == nil {
			durable = false
		} else {
			wal.Records += st.WAL.Records
			wal.Bytes += st.WAL.Bytes
			wal.DeadRecords += st.WAL.DeadRecords
			wal.DeadBytes += st.WAL.DeadBytes
			wal.LiveRecords += st.WAL.LiveRecords
			wal.Segments += st.WAL.Segments
			wal.Syncs += st.WAL.Syncs
			if i == 0 || st.WAL.Generation < wal.Generation {
				wal.Generation = st.WAL.Generation
			}
		}
		if len(l.shards) > 1 {
			agg.Shards = append(agg.Shards, classminer.ShardStats{Shard: i, LibraryStats: st})
		}
	}
	if agg.Shots == 0 {
		agg.IndexStale = true
	}
	if durable {
		agg.WAL = &wal
	}
	return agg
}

// Video returns a registered video's entry from its owning shard, or nil.
func (l *Library) Video(name string) *classminer.VideoEntry {
	return l.owner(name).Video(name)
}

// VideoNames returns every registered name across shards, sorted.
func (l *Library) VideoNames() []string {
	var names []string
	for _, sh := range l.shards {
		names = append(names, sh.VideoNames()...)
	}
	sort.Strings(names)
	return names
}

// Size is the total number of indexable shots across shards.
func (l *Library) Size() int {
	n := 0
	for _, sh := range l.shards {
		n += sh.Size()
	}
	return n
}

// ScenesByEvent concatenates every shard's allowed scenes of the category.
func (l *Library) ScenesByEvent(u classminer.User, kind classminer.EventKind) []classminer.SceneRef {
	var out []classminer.SceneRef
	for _, sh := range l.shards {
		out = append(out, sh.ScenesByEvent(u, kind)...)
	}
	return out
}

// ---- Durability: fan out; each shard owns an independent WAL. ----

// ImportSnapshot reads a library snapshot (classminer.Library.Save's format)
// and routes every video to its owning shard, returning how many were
// imported. On a durable library each import is journaled like any
// registration.
func (l *Library) ImportSnapshot(r io.Reader, skipExisting bool) (int, error) {
	saved, err := store.ReadLibrary(r)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, sv := range saved.Videos {
		res, err := store.DecodeResult(sv.Result)
		if err != nil {
			return n, err
		}
		sh := l.owner(res.Video.Name)
		if skipExisting && sh.Video(res.Video.Name) != nil {
			continue
		}
		if err := sh.AddResultCtx(context.Background(), res, sv.Subcluster); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Durable reports whether the shards write-ahead log registrations; shards
// are homogeneous by construction, so shard 0 answers for all.
func (l *Library) Durable() bool { return l.shards[0].Durable() }

// Checkpoint snapshots every shard in parallel.
func (l *Library) Checkpoint() error {
	var wg sync.WaitGroup
	errs := make([]error, len(l.shards))
	for i, sh := range l.shards {
		wg.Add(1)
		go func(i int, sh *classminer.Library) {
			defer wg.Done()
			if err := sh.Checkpoint(); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Compact compacts every shard's sealed segments, summing what was
// reclaimed.
func (l *Library) Compact() (classminer.CompactStats, error) {
	var total classminer.CompactStats
	var errs []error
	for i, sh := range l.shards {
		cs, err := sh.Compact()
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
			continue
		}
		total.SegmentsScanned += cs.SegmentsScanned
		total.SegmentsCompacted += cs.SegmentsCompacted
		total.SegmentsRemoved += cs.SegmentsRemoved
		total.RecordsDropped += cs.RecordsDropped
		total.BytesFreed += cs.BytesFreed
	}
	return total, errors.Join(errs...)
}

// WALStats aggregates the per-shard logs (same discipline as Stats);
// ok is false when the library is not durable.
func (l *Library) WALStats() (classminer.WALStats, bool) {
	st := l.Stats()
	if st.WAL == nil {
		return classminer.WALStats{}, false
	}
	return *st.WAL, true
}

// Close closes every shard, releasing each data-dir lock.
func (l *Library) Close() error {
	errs := make([]error, len(l.shards))
	for i, sh := range l.shards {
		if err := sh.Close(); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return errors.Join(errs...)
}

// ---- Metrics. ----

// Instrument registers every shard's instruments (counters and histograms
// dedupe by name, so shards share and naturally sum them), then replaces
// the last-registered per-shard gauges with router-level aggregates:
// summed sizes, max staleness, plus a shard-count gauge.
func (l *Library) Instrument(reg *metrics.Registry) {
	for _, sh := range l.shards {
		sh.Instrument(reg)
	}
	reg.GaugeFunc("classminer_shards", "Shards behind the library router.",
		func() float64 { return float64(len(l.shards)) })
	reg.GaugeFunc("classminer_videos", "Videos currently registered.",
		func() float64 {
			n := 0
			for _, sh := range l.shards {
				n += sh.Stats().Videos
			}
			return float64(n)
		})
	reg.GaugeFunc("classminer_shots", "Indexable shots currently registered.",
		func() float64 { return float64(l.Size()) })
	reg.GaugeFunc("classminer_dead_rows",
		"Rows of deleted or replaced videos awaiting the next compaction.",
		func() float64 { return float64(l.Stats().DeadRows) })
	reg.GaugeFunc("classminer_index_staleness",
		"Incremental-overlay fraction of the serving index (0 = freshly fit).",
		func() float64 { return l.IndexStaleness() })
}

// instrumentWAL replaces the per-engine WAL gauges (each shard's engine
// registered its own at open; last one won) with sums across shards.
func (l *Library) instrumentWAL(reg *metrics.Registry) {
	sum := func(f func(classminer.WALStats) float64) func() float64 {
		return func() float64 {
			var t float64
			for _, sh := range l.shards {
				if ws, ok := sh.WALStats(); ok {
					t += f(ws)
				}
			}
			return t
		}
	}
	reg.GaugeFunc("wal_lag_records", "Records appended since the last checkpoint.",
		sum(func(ws classminer.WALStats) float64 { return float64(ws.Records) }))
	reg.GaugeFunc("wal_lag_bytes", "Log bytes appended since the last checkpoint.",
		sum(func(ws classminer.WALStats) float64 { return float64(ws.Bytes) }))
	reg.GaugeFunc("wal_dead_bytes",
		"Estimated superseded (dead) bytes on the live log.",
		sum(func(ws classminer.WALStats) float64 { return float64(ws.DeadBytes) }))
	reg.GaugeFunc("wal_segments", "Live log segments (replayed on recovery).",
		sum(func(ws classminer.WALStats) float64 { return float64(ws.Segments) }))
	reg.CounterFunc("wal_checkpoints_total", "Completed checkpoint generations.",
		sum(func(ws classminer.WALStats) float64 { return float64(ws.Generation) }))
	reg.CounterFunc("wal_syncs_total", "Segment-data fsyncs since open.",
		sum(func(ws classminer.WALStats) float64 { return float64(ws.Syncs) }))
}
