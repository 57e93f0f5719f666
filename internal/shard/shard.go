// Package shard is the library the daemon serves: a router over N >= 1
// *classminer.Library shards — each with its own lock, feature rows,
// incremental index and rebuild bookkeeping — that keeps the single-library
// API. N partitions memory, not storage: a durable router has one WAL engine
// in one plain data directory whatever N is (classminer.RecoverPartitioned),
// so N is a choice made per process, any count opens any directory, and one
// group commit and one checkpoint serve every shard.
// Mutations route to exactly one shard by a deterministic hash of the video
// name (content-based placement: the same name always lands on the same
// shard, so duplicate detection and replacement stay shard-local and the
// log's order per name is that shard's install order), and searches
// scatter-gather: every non-empty shard ranks its own top-k, and the router
// merges the exact distances the shards report (internal/index.MergeHits)
// under the (distance, video name, shot index) total order, which makes
// results deterministic and independent of the shard count.
//
// What is per-shard and therefore parallel at N > 1 is what lives in memory
// — lock contention, incremental index updates, refits, replay's record
// decode; at N = 1 the router adds a name hash and a sort of k hits to what
// the one shard does. Subcluster and ACL policy is replicated to all shards
// (Protect fans out), so per-shard search filtering applies exactly the
// rules the router holds.
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"classminer"
	"classminer/internal/metrics"
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

// ShardAt exposes shard i directly.
func (l *Library) ShardAt(i int) *classminer.Library { return l.shards[i] }

// Engine returns the WAL engine every shard journals to (nil when the
// library is not durable). The replication hub ships it.
func (l *Library) Engine() *wal.Engine { return l.shards[0].Engine() }

// MaxShards bounds the shard count to something a single node can own;
// beyond it a flag typo is far more likely than a real deployment.
const MaxShards = 256

func checkShardCount(n int) error {
	if n < 1 || n > MaxShards {
		return fmt.Errorf("shard: shard count %d out of range [1,%d]", n, MaxShards)
	}
	return nil
}

// Recover opens (or creates) the durable library under dir with n in-memory
// shards over the directory's one log; n = 0 means 1. The directory is a
// plain classminer data dir and records nothing about n: any count opens any
// dir, and this Recover and classminer.Recover open each other's. A dir in a
// layout an earlier build wrote — among them the SHARDS file over per-shard
// data dirs that builds with a log per shard left — is refused untouched
// (wal.ErrRetiredFormat).
func Recover(dir string, n int, a *classminer.Analyzer, opts classminer.DurableOptions) (*Library, error) {
	if n == 0 {
		n = 1
	}
	if err := checkShardCount(n); err != nil {
		return nil, err
	}
	shards, err := classminer.RecoverPartitioned(dir, n, func(name string) int { return shardIndex(name, n) }, a, opts)
	if err != nil {
		return nil, err
	}
	return &Library{shards: shards}, nil
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

// place is the router's placement: the index of the shard that owns name.
func (l *Library) place(name string) int { return shardIndex(name, len(l.shards)) }

// owner returns the shard responsible for the named video.
func (l *Library) owner(name string) *classminer.Library { return l.shards[l.place(name)] }

// ---- Mutations: route to exactly one shard. ----

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
// The WAL block describes the one log behind every shard, so it appears once,
// on the aggregate; the per-shard blocks carry library counters only.
func (l *Library) Stats() classminer.LibraryStats {
	var agg classminer.LibraryStats
	for i, sh := range l.shards {
		st := sh.Stats()
		agg.WAL, st.WAL = st.WAL, nil
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
		agg.FeatureRowBytes += st.FeatureRowBytes
		if len(l.shards) > 1 {
			agg.Shards = append(agg.Shards, classminer.ShardStats{Shard: i, LibraryStats: st})
		}
	}
	if agg.Shots == 0 {
		agg.IndexStale = true
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

// ---- Durability and replication: one log behind every shard. ----

// ApplyRecord applies one replicated log record on the shard that owns its
// key (see classminer.Library.ApplyRecord). The leader's shard count plays
// no part: its one log orders the records of any one key, which is all the
// order an owner needs.
func (l *Library) ApplyRecord(ctx context.Context, rec *wal.Record) error {
	return l.owner(rec.Key).ApplyRecord(ctx, rec)
}

// ReseedFromSnapshot converges the router onto a leader checkpoint snapshot,
// every entry on its owning shard (see classminer.ReseedPartitioned).
func (l *Library) ReseedFromSnapshot(ctx context.Context, r io.Reader) (installed, removed int, err error) {
	return classminer.ReseedPartitioned(ctx, l.shards, l.place, r)
}

// Durable reports whether the shards write-ahead log registrations. The
// shards share one engine (or none), so shard 0 answers for all — here and
// in Checkpoint, WALStats and Close.
func (l *Library) Durable() bool { return l.shards[0].Durable() }

// Checkpoint snapshots every shard into one checkpoint of the shared log.
func (l *Library) Checkpoint() error { return l.shards[0].Checkpoint() }

// WALStats reports the shared log's lag; ok is false when the library is
// not durable.
func (l *Library) WALStats() (classminer.WALStats, bool) { return l.shards[0].WALStats() }

// Close releases the shared engine and with it the data-dir lock.
func (l *Library) Close() error { return l.shards[0].Close() }

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
