// Package classminer is a from-scratch Go implementation of ClassMiner —
// the medical video mining framework of Zhu, Aref, Fan, Catlin and
// Elmagarmid, "Medical Video Mining for Efficient Database Indexing,
// Management and Access" (ICDE 2003).
//
// The package offers two entry points:
//
//   - Analyzer mines a single video's content structure (shots → groups →
//     scenes → clustered scenes), mines the three event categories
//     (presentation, dialog, clinical operation) from visual and audio
//     cues, and builds the four-level scalable skimming of §5.
//
//   - Library manages a collection of mined videos behind the paper's
//     hierarchical database model: a concept-derived index with
//     multi-center non-leaf nodes and hash-table leaves (§2, §6.2), and
//     hierarchical multilevel access control.
//
// A third entry point lives outside this package: internal/server wraps a
// Library in a concurrent HTTP/JSON API and cmd/classminerd runs it as a
// daemon. See README.md for the package map, quickstart and experiment
// commands (cmd/experiments regenerates every figure and table).
package classminer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"classminer/internal/access"
	"classminer/internal/concept"
	"classminer/internal/core"
	"classminer/internal/featrow"
	"classminer/internal/index"
	"classminer/internal/metrics"
	"classminer/internal/skim"
	"classminer/internal/store"
	"classminer/internal/trace"
	"classminer/internal/vidmodel"
	"classminer/internal/wal"
)

// Re-exported media and result types. These aliases are the public face of
// the internal model; downstream code only imports this package.
type (
	// Video is a decoded media document (frames + aligned audio).
	Video = vidmodel.Video
	// Shot is the physical unit of §3 Definition 2.
	Shot = vidmodel.Shot
	// Scene is a collection of semantically related adjacent groups.
	Scene = vidmodel.Scene
	// EventKind is a mined event category.
	EventKind = vidmodel.EventKind
	// Analyzer mines video content structure and events. Construct once
	// with NewAnalyzer and reuse across videos (it holds a trained audio
	// classifier); Analyze runs the full Fig. 3 pipeline on one video.
	Analyzer = core.Analyzer
	// Options configures the mining pipeline.
	Options = core.Options
	// Result is the mined content structure of one video.
	Result = core.Result
	// User is an access-control subject.
	User = access.User
	// Clearance is a multilevel-security level.
	Clearance = access.Clearance
	// Rule protects a concept subtree.
	Rule = access.Rule
	// SearchHit is one ranked query result.
	SearchHit = index.Result
	// SearchStats counts the work a search performed (§6.2 cost model).
	SearchStats = index.Stats
	// SkimLevel indexes the four scalable-skimming layers of §5.
	SkimLevel = skim.Level
	// DurableOptions configures the write-ahead log behind Recover.
	DurableOptions = wal.Options
	// WALStats reports a durable library's log lag (records and bytes
	// appended since the last checkpoint).
	WALStats = wal.Stats
)

// Write-ahead-log fsync policies for DurableOptions.Sync.
const (
	SyncAlways = wal.SyncAlways
	SyncNever  = wal.SyncNever
)

// ErrDuplicateVideo reports a registration under a name the library already
// holds. Recovery relies on it: records that straddle a checkpoint appear
// in both the snapshot and the log tail, and replay skips the second copy
// by matching this error.
var ErrDuplicateVideo = errors.New("classminer: video already registered")

// ErrUnknownVideo reports a delete of a name the library does not hold.
var ErrUnknownVideo = errors.New("classminer: video not registered")

// ErrForbidden reports a policy-gated mutation the user may not perform
// (DeleteVideoAsCtx on a video whose subcluster the policy hides from them).
var ErrForbidden = errors.New("classminer: access denied")

// ErrInvalidResult reports a mined result the library refuses to register:
// a non-finite feature value, or rows whose dimensionality is not the
// library's.
var ErrInvalidResult = errors.New("classminer: invalid result")

// The four skimming layers (granularity increases from 4 down to 1).
const (
	SkimLevel1 = skim.Level1
	SkimLevel2 = skim.Level2
	SkimLevel3 = skim.Level3
	SkimLevel4 = skim.Level4
)

// Event categories (§4.3).
const (
	EventUnknown           = vidmodel.EventUnknown
	EventPresentation      = vidmodel.EventPresentation
	EventDialog            = vidmodel.EventDialog
	EventClinicalOperation = vidmodel.EventClinicalOperation
)

// Clearance levels of the built-in lattice.
const (
	Public        = access.Public
	Student       = access.Student
	Nurse         = access.Nurse
	Clinician     = access.Clinician
	Administrator = access.Administrator
)

// NewAnalyzer builds a mining pipeline; the zero Options reproduce the
// paper's published settings.
func NewAnalyzer(opts Options) (*Analyzer, error) { return core.NewAnalyzer(opts) }

// VideoEntry is a video registered in a Library.
type VideoEntry struct {
	Result     *Result
	Subcluster string // concept hierarchy placement (e.g. "medicine")
	// Path is ConceptPath(Subcluster), the unit at which browsing and
	// query-by-example requests are gated, computed once at registration.
	// It is never written, and its capacity is its length, so appending to
	// it copies.
	Path []string
	// row and rows are the contiguous span of library rows the video's shots
	// were appended at: rows [row, row+rows) of entries. The library rewrites
	// row whenever it compacts.
	row, rows int
}

// Library is the paper's video database: mined videos behind a
// concept-hierarchy index with access control. All methods are safe for
// concurrent use; reads proceed in parallel while registration, deletion
// and policy changes serialise.
//
// Rows. Every registered shot is one row of entries, and its features are
// held once, zero-suppressed: at registration the library packs a video's
// rows into one arena sized to hold exactly them (packRows, the form the
// binary entry writes on disk), points each shot's Row at its row there and
// drops the shot's dense Color/Texture (installLocked). A video decoded from
// a stored entry — snapshot load, log replay, a follower's apply — or from
// an ingest body arrives with its rows already in that form, and packRows
// only checks them. The fit, the index
// and the checkpoint writer read the packed rows there; nothing else copies
// them. Between compactions entries is append-only: a registration appends
// its rows and remembers the span in its VideoEntry, and a deletion or
// replacement only marks the span in the dead bitset (removeLocked) — it
// costs what the video holds, not what the library holds, and copies no
// feature row. Rows move in exactly two places,
// both of which gather entry pointers into a fresh array (nothing ever edits
// the old one, which an index or an in-flight fit may still be reading) and
// bump epoch: a full fit that found dead rows hands the library the
// compacted array it fitted over (BuildIndexCtx), and removeLocked compacts
// by itself once dead rows outnumber live ones, which bounds rows at twice
// the live count when nothing is refitting. A dead video's arena is garbage
// once no entry array or index names it.
//
// A registered Result's shots belong to the library: their features are
// rewritten as they move into the arena, under the write lock and before
// the video is visible, and are never written again — the checkpoint writer
// and the serving layer read them without the lock.
//
// Index. BuildIndexCtx is copy-on-write: the expensive fit runs outside the
// lock against a snapshot of the rows and the finished index is swapped in
// atomically, so concurrent searches keep answering from the previous index
// (at worst slightly stale) instead of blocking or erroring while a rebuild
// is in flight. Between fits the serving index absorbs registrations
// (InsertAll) and deletions (a mask) incrementally, and because the index
// numbers its entries the way the library numbers its rows, a deletion
// masks by row span.
type Library struct {
	// wmu serialises the writers — register, replace, delete and Protect —
	// across their whole validate → journal → apply sequence (write), and the
	// checkpoint source takes it too (settledVideos). Searches never take it:
	// they read-lock mu, which a writer holds only to validate (read) and to
	// apply (write), never across a disk flush. Lock order: wmu < mu.
	wmu       sync.Mutex
	mu        sync.RWMutex
	hierarchy *concept.Hierarchy
	policy    *access.Policy
	videos    map[string]*VideoEntry
	entries   []*index.Entry
	featDim   int // feature dimensionality of every row (0 = unconstrained)
	// rowBytes is what the rows of entries, dead ones included, take in
	// their arenas (LibraryStats.FeatureRowBytes).
	rowBytes int64
	// dead marks the rows of videos no longer registered (bit i = row i; it
	// always covers every row) and deadRows counts them, so the live shot
	// count is len(entries) - deadRows. epoch counts compactions: a fit
	// snapshotted under an older epoch describes rows that have since moved.
	dead     []uint64
	deadRows int
	epoch    int64
	ix       *index.Index
	// ixEpoch is the epoch ix was installed under. While it equals epoch the
	// index's entry IDs are the library's row numbers (for every entry the
	// index holds), so removeLocked masks by span; after a compaction the
	// index did not take part in, it masks by name until the next fit.
	ixEpoch int64
	// entriesVer counts entry-set mutations; ixVer is the entriesVer the
	// installed index reflects (index is stale while they differ —
	// incremental maintenance usually keeps them equal). ixFitVer is the
	// entriesVer of the installed index's last *full fit*: the gap between
	// it and ixVer is served by the incremental overlay.
	entriesVer int64
	ixVer      int64
	ixFitVer   int64
	// fits counts the full fits BuildIndexCtx installed, fitsDropped the ones
	// it threw away at the swap (see BuildIndexCtx for the only two reasons).
	fits        int64
	fitsDropped int64
	// gen counts every mutation that can change what a query returns
	// (registration, index swap, policy change). Caches key on it.
	gen int64
	// journal, when non-nil, is the durable storage engine: register,
	// replace and delete append their encoded records to it before
	// mutating in-memory state, and Recover rebuilds the library from its
	// snapshot + log.
	journal *wal.Engine
	// afterAppend, when non-nil, runs in write between a mutation's journal
	// append and its apply (test-only: it holds a journaled mutation open).
	afterAppend func()
	// met holds the library's lifecycle instruments (see Instrument). The
	// zero value is fully inert: every instrument is a nil pointer whose
	// methods are no-ops, so un-instrumented libraries pay nothing.
	met libMetrics
}

// libMetrics counts library lifecycle events for the /metrics exposition.
type libMetrics struct {
	registrations *metrics.Counter // fresh registrations installed
	replacements  *metrics.Counter // existing registrations superseded
	deletes       *metrics.Counter // videos unregistered
	ixInserts     *metrics.Counter // shots absorbed into the serving index incrementally
	ixRemoves     *metrics.Counter // shots masked out of the serving index incrementally
	fitsDropped   *metrics.Counter // full fits thrown away at the swap
	// fitSeconds times every full fit, by phase: [0] "boot", the fit that
	// builds the library's first index (a daemon's, over what it
	// recovered), and [1] "run", every refit of a serving index.
	fitSeconds [2]*metrics.Histogram
	rowsFit    *metrics.Counter // rows the full fits read
}

// Instrument registers the library's metrics on reg: lifecycle counters
// (registrations, replacements, deletes), incremental index maintenance
// counters, and size/staleness gauges sampled at scrape time. The first
// call wins — a second registry gets the gauges (their callbacks read the
// library directly) but the counters keep feeding the first, so one library
// serves one authoritative set of series no matter how many servers wrap it.
// Instruments are created outside l.mu: scrape-time gauge callbacks take
// l.mu while the registry's lock is held, so registering under l.mu would
// invert that order.
func (l *Library) Instrument(reg *metrics.Registry) {
	m := libMetrics{
		registrations: reg.Counter("classminer_registrations_total",
			"Videos registered (fresh names; replacements counted separately)."),
		replacements: reg.Counter("classminer_replacements_total",
			"Existing registrations superseded by re-ingest."),
		deletes: reg.Counter("classminer_deletes_total",
			"Videos unregistered."),
		ixInserts: reg.Counter("classminer_index_incremental_inserts_total",
			"Shots absorbed into the serving index without a full refit."),
		ixRemoves: reg.Counter("classminer_index_incremental_removes_total",
			"Shots masked out of the serving index without a full refit."),
		fitsDropped: reg.Counter("classminer_index_fits_dropped_total",
			"Full index fits discarded at the swap (the library compacted under them, or a newer fit landed first)."),
		rowsFit: reg.Counter("index_rows_fit_total",
			"Rows read by full index fits, installed or dropped."),
	}
	for i, phase := range []string{"boot", "run"} {
		m.fitSeconds[i] = reg.Histogram("index_fit_seconds",
			"Duration of full index fits: phase boot builds the library's first index, run refits a serving one.",
			metrics.LatencyBuckets, "phase", phase)
	}
	reg.GaugeFunc("classminer_videos", "Videos currently registered.",
		func() float64 { l.mu.RLock(); defer l.mu.RUnlock(); return float64(len(l.videos)) })
	reg.GaugeFunc("classminer_shots", "Indexable shots currently registered.",
		func() float64 { return float64(l.Size()) })
	reg.GaugeFunc("classminer_dead_rows",
		"Rows of deleted or replaced videos awaiting the next compaction.",
		func() float64 { l.mu.RLock(); defer l.mu.RUnlock(); return float64(l.deadRows) })
	reg.GaugeFunc("classminer_index_staleness",
		"Incremental-overlay fraction of the serving index (0 = freshly fit).",
		func() float64 { return l.IndexStaleness() })
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.met.registrations == nil {
		l.met = m
	}
}

// NewLibrary creates an empty library using the Fig. 2 medical concept
// hierarchy. A library indexes mined results and never mines: the analyzer
// is ignored (pass nil), and the parameter stays only because the frozen
// benchmark (cmd/loadgen) passes one; ROADMAP item 1(d) retires it.
func NewLibrary(*Analyzer) *Library {
	return &Library{
		hierarchy: concept.Medical(),
		policy:    access.NewPolicy(),
		videos:    map[string]*VideoEntry{},
	}
}

// Protect adds an access-control rule over a concept subtree.
func (l *Library) Protect(r Rule) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.policy.Add(r)
	l.gen++
}

// Generation returns a counter that advances whenever a mutation could
// change what a query returns. Result caches key on it so an ingested
// video, an index swap or a new protection rule invalidates stale answers.
func (l *Library) Generation() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.gen
}

// checkSubcluster verifies that name is an actual subcluster-level concept
// ("medicine", "nursing", "dentistry"). Placement must happen at that
// level: shot paths are rooted under the subcluster's ancestors, so filing
// a video under a cluster or scene concept would put it outside the
// subtrees that protection rules govern.
func (l *Library) checkSubcluster(name string) error {
	n := l.hierarchy.Find(name)
	if n == nil || n.Level != concept.LevelSubcluster {
		return fmt.Errorf("classminer: unknown subcluster concept %q", name)
	}
	return nil
}

// AddResult is AddResultCtx without a trace. It stays only because the
// benchmark's probes (cmd/loadgen) call it; ROADMAP item 1(d) retires it.
func (l *Library) AddResult(res *Result, subcluster string) error {
	return l.AddResultCtx(context.Background(), res, subcluster)
}

// AddResultCtx registers an already-mined result (e.g. decoded from a
// journal record or produced by Analyzer.Analyze) under the given
// subcluster concept ("medicine", "nursing", "dentistry"). The registration
// is absorbed into a current serving index incrementally and otherwise
// leaves it stale; call BuildIndexCtx after the last one for a full fit.
// When ctx carries a trace span (a traced ingest job), the journaling and
// install stages each record child spans.
//
// Once registered, res belongs to the library and is immutable: its shots'
// features are packed into the library's row store (Shot.Row) and their
// dense slices dropped, and nothing may write them afterwards. Do not
// register it while another goroutine reads it.
func (l *Library) AddResultCtx(ctx context.Context, res *Result, subcluster string) error {
	if res == nil || res.Video == nil {
		return fmt.Errorf("classminer: nil result")
	}
	if err := l.checkSubcluster(subcluster); err != nil {
		return err
	}
	return l.register(ctx, res.Video.Name, res, subcluster)
}

// write is the one path every mutation takes. Under wmu, which only writers
// hold, validate runs under the read lock; rec, when non-nil, is journaled —
// written and, under SyncAlways, fsynced — with no library lock held; and
// apply runs under the write lock. Validation comes first because a mutation
// that would fail must never reach the log, or replay would resurrect it;
// the append comes before the apply because a search must never see a
// mutation the log could still lose. No other writer can run between the
// three steps, so what validate checked still holds at apply, and log order
// is apply order. A failed append (the engine truncates its own frame back
// off the log) leaves the library untouched. The wmu wait is traced as
// "wal.park" and the apply, its lock wait included, as "install".
func (l *Library) write(ctx context.Context, kind, name string, rec []byte, validate func() error, apply func()) error {
	park := trace.StartSpan(ctx, "wal.park")
	l.wmu.Lock()
	park.End()
	defer l.wmu.Unlock()
	l.mu.RLock()
	err := validate()
	journal := l.journal
	l.mu.RUnlock()
	if err != nil {
		return err
	}
	if rec != nil && journal != nil {
		if err := journal.AppendCtx(ctx, rec); err != nil {
			return fmt.Errorf("classminer: journaling %s of %q: %w", kind, name, err)
		}
		if l.afterAppend != nil {
			l.afterAppend()
		}
	}
	inst := trace.StartSpan(ctx, "install")
	l.mu.Lock()
	apply()
	l.mu.Unlock()
	inst.End()
	return nil
}

// register installs a mined result (via installLocked), refusing names the
// library already holds. On a durable library the registration is
// write-ahead logged before it is visible (write), so every registration the
// caller saw succeed is replayed by Recover after a crash.
func (l *Library) register(ctx context.Context, name string, res *Result, subcluster string) error {
	sp := trace.StartSpan(ctx, "register")
	defer sp.End()
	if sp != nil {
		// Nest the encode/install/WAL child spans under "register" rather
		// than the caller's span; the WithValue costs nothing untraced.
		ctx = trace.With(ctx, sp)
	}
	// Encoding the journal record, deriving the index entries and packing
	// their rows need no library state: they run before any lock, so
	// concurrent registrations overlap the work instead of queueing it.
	enc := sp.Start("encode")
	rec, err := l.encodeJournalRecord(wal.RecordRegister, name, res, subcluster)
	if err != nil {
		enc.End()
		return err
	}
	newEntries := res.IndexEntries(subcluster)
	rows, err := packRows(name, newEntries)
	enc.End()
	if err != nil {
		return err
	}
	var dim int
	return l.write(ctx, wal.RecordRegister, name, rec, func() (err error) {
		if _, dup := l.videos[name]; dup {
			return fmt.Errorf("%w: %q", ErrDuplicateVideo, name)
		}
		dim, err = checkEntryDims(name, rows, l.featDim)
		return err
	}, func() {
		l.installLocked(name, res, subcluster, newEntries, rows, dim)
		l.met.registrations.Inc()
	})
}

// replace installs a mined result under name, superseding any existing
// registration — an upsert: absent names register fresh. On a durable
// library the whole mutation is one wal.RecordReplace record, so replay
// can never observe the delete without the re-add. Replay itself reuses
// this method (the journal is not attached yet, so nothing is re-logged).
// check, when non-nil, runs on the existing entry under the read lock and
// can veto the replacement before anything is logged (the policy gate of
// ReplaceResultAsCtx).
func (l *Library) replace(ctx context.Context, name string, res *Result, subcluster string, check func(*VideoEntry) error) error {
	sp := trace.StartSpan(ctx, "replace")
	defer sp.End()
	if sp != nil {
		ctx = trace.With(ctx, sp) // nest the write spans under "replace"
	}
	rec, err := l.encodeJournalRecord(wal.RecordReplace, name, res, subcluster)
	if err != nil {
		return err
	}
	newEntries := res.IndexEntries(subcluster)
	rows, err := packRows(name, newEntries)
	if err != nil {
		return err
	}
	var replacing bool
	var dim int
	return l.write(ctx, wal.RecordReplace, name, rec, func() (err error) {
		ve, ok := l.videos[name]
		replacing = ok
		if replacing && check != nil {
			if err := check(ve); err != nil {
				return err
			}
		}
		// When the victim is the only registered video, its dimensionality
		// leaves with it — validate against an unconstrained library,
		// exactly as the equivalent delete-then-add would.
		baseDim := l.featDim
		if replacing && len(l.videos) == 1 {
			baseDim = 0
		}
		dim, err = checkEntryDims(name, rows, baseDim)
		return err
	}, func() {
		// removeLocked's empty-library branch drops the serving index —
		// right for a delete, wrong mid-replace: a successor is about to be
		// installed, and the replace contract is that the old index (the
		// victim masked out of it) keeps serving, stale, until the next
		// BuildIndex. The exception is a replacement that changes the
		// feature dimensionality (possible only when the victim was the sole
		// video): the old index answers queries of the *old* width only, and
		// would refuse every query of the library's new one — there the
		// index stays down, exactly as a delete leaves it.
		oldIx, oldIxVer, oldDim := l.ix, l.ixVer, l.featDim
		l.removeLocked(name)
		if l.ix == nil && oldIx != nil && dim == oldDim {
			l.ix, _ = oldIx.Remove(name)
			l.ixVer = oldIxVer
		}
		l.installLocked(name, res, subcluster, newEntries, rows, dim)
		if replacing {
			l.met.replacements.Inc()
		} else {
			l.met.registrations.Inc()
		}
	})
}

// visibleTo returns the lifecycle guard DeleteVideoAsCtx and the *As replace
// variants share: it vetoes mutating a video whose subcluster the policy
// hides from u. It runs as write's validate, under wmu, which Protect takes
// too, so the verdict and the mutation are one atomic step.
func (l *Library) visibleTo(u User) func(*VideoEntry) error {
	return func(ve *VideoEntry) error {
		n := l.hierarchy.Find(ve.Subcluster)
		if n == nil || !l.policy.Allowed(u, n.Path()) {
			return fmt.Errorf("%w: subcluster %q", ErrForbidden, ve.Subcluster)
		}
		return nil
	}
}

// packRows returns the packed feature of every entry's shot: the Row a shot
// already holds — one decoded from a stored entry, or a registered one (a
// replace with the same Result) — the others packed by one featrow.Pack, one
// arena for the video, which checks their values finite in the same pass.
// Packing writes no shot. Validation runs before any journaling or mutation:
// a registration that would fail must never reach the log. A NaN or an
// infinity would — the binary record carries any float64 — and from there
// into every distance it is ranked by, on this node and, replayed, on every
// other; so it is refused here, in a row that arrives packed as in one that
// does not, with the same error whether or not the library is durable.
func packRows(name string, entries []*index.Entry) ([]featrow.Row, error) {
	refuse := func(e *index.Entry) error {
		return fmt.Errorf("%w: video %q shot %d has a non-finite feature value",
			ErrInvalidResult, name, e.Shot.Index)
	}
	rows := make([]featrow.Row, len(entries))
	for i, e := range entries {
		if rows[i] = e.Shot.Row; !rows[i].IsZero() && !finite(rows[i]) {
			return nil, refuse(e)
		}
	}
	if bad := featrow.Pack(rows, func(i int) (color, texture []float64) {
		return entries[i].Shot.Color, entries[i].Shot.Texture
	}); bad >= 0 {
		return nil, refuse(entries[bad])
	}
	return rows, nil
}

// finite reports whether every value a packed row holds is finite.
func finite(r featrow.Row) bool {
	c, t := r.Halves()
	for _, vals := range [2][]float64{c.Vals, t.Vals} {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// checkEntryDims validates that every new row matches dim (0 = the library
// constrains nothing and the rows establish it), returning the dimension to
// install.
func checkEntryDims(name string, rows []featrow.Row, dim int) (int, error) {
	for _, r := range rows {
		d := r.Len()
		if dim == 0 {
			dim = d
		}
		if d != dim {
			return 0, fmt.Errorf("%w: video %q shot has %d feature dims, library has %d",
				ErrInvalidResult, name, d, dim)
		}
	}
	return dim, nil
}

// installLocked commits a validated registration to in-memory state: each
// shot not yet registered takes its packed row (rows[i] is newEntries[i]'s)
// and drops its dense halves, the entries are appended to the library's
// rows, the video remembers the row span, and the entry set and generation
// advance. When the serving index was current, the new entries are inserted
// into it incrementally (copy-on-write, no refit, one batch per video) so
// the registration is searchable the moment the caller is acknowledged;
// otherwise — or when an entry's concept path has no leaf in the built tree
// — the index is left stale for the coalesced rebuilder. Callers hold l.mu.
func (l *Library) installLocked(name string, res *Result, subcluster string, newEntries []*index.Entry, rows []featrow.Row, dim int) {
	l.featDim = dim
	row := len(l.entries)
	for i, e := range newEntries {
		if s := e.Shot; s.Row.IsZero() {
			s.Row, s.Color, s.Texture = rows[i], nil, nil
		}
		l.rowBytes += int64(rows[i].Bytes())
	}
	l.entries = append(l.entries, newEntries...)
	for len(l.dead)*64 < len(l.entries) {
		l.dead = append(l.dead, 0)
	}
	l.videos[name] = &VideoEntry{Result: res, Subcluster: subcluster, Path: slices.Clip(l.ConceptPath(subcluster)),
		row: row, rows: len(newEntries)}
	wasCurrent := l.ix != nil && l.ixVer == l.entriesVer
	l.entriesVer++
	l.gen++
	if !wasCurrent {
		return
	}
	nix, err := l.ix.InsertAll(newEntries)
	if err != nil {
		// A brand-new concept (or any other incremental limit): keep the
		// pre-mutation index serving and flag staleness instead.
		return
	}
	l.ix = nix
	l.ixVer = l.entriesVer
	l.met.ixInserts.Add(uint64(len(newEntries)))
}

// removeLocked unregisters name, if present. It is the one removal routine —
// delete, replace, tombstone replay and a follower's apply all end here —
// and it costs what the video
// holds: the video's row span is marked in the dead bitset and masked out of
// the serving index (copy-on-write, by span), and no feature row is touched.
// The rows stay where they are, because an in-flight BuildIndexCtx and the
// installed index read them; the next full fit drops them as it lands. The
// mask never waits for that: it is applied whether or not the index was
// current (a stale index stays stale, but stops ranking the video now), and
// the generation bump invalidates response caches.
//
// When no fit is coming — log replay, a library nobody runs BuildIndexCtx on,
// rebuilds paused — dead rows are bounded here instead: once they outnumber
// the live ones the library compacts into a fresh array (compactLocked),
// amortised O(1) per retired row, so rows never exceed twice the live count.
// Callers hold l.mu.
func (l *Library) removeLocked(name string) bool {
	ve, ok := l.videos[name]
	if !ok {
		return false
	}
	delete(l.videos, name)
	for r := ve.row; r < ve.row+ve.rows; r++ {
		l.dead[r>>6] |= 1 << uint(r&63)
	}
	l.deadRows += ve.rows
	wasCurrent := l.ix != nil && l.ixVer == l.entriesVer
	l.entriesVer++
	l.gen++
	if l.ix != nil {
		var masked int
		if l.ixEpoch == l.epoch {
			ids := make([]int32, ve.rows)
			for i := range ids {
				ids[i] = int32(ve.row + i)
			}
			l.ix, masked = l.ix.RemoveIDs(ids)
		} else {
			l.ix, masked = l.ix.Remove(name)
		}
		l.met.ixRemoves.Add(uint64(masked))
		if wasCurrent {
			l.ixVer = l.entriesVer
		}
	}
	switch live := len(l.entries) - l.deadRows; {
	case live == 0:
		// Nothing left to index: drop the installed index now rather than
		// serve a library of ghosts until a BuildIndex that would error, and
		// fence its version so nothing reads as pending against an empty
		// library. The rows go too (a compaction: in-flight fits are dropped
		// at their swap), and with them the feature dimensionality — it was
		// learned from the registrations just removed, and an empty library
		// constrains nothing (the next registration re-establishes it).
		l.ix = nil
		l.ixVer = l.entriesVer
		l.entries, l.dead, l.deadRows, l.rowBytes = nil, nil, 0, 0
		l.epoch++
		l.featDim = 0
	case l.deadRows > live:
		l.compactLocked()
	}
	return true
}

// compactLocked rebuilds entries into a fresh array holding the live rows in
// row order. The installed index keeps serving from the entries it was built
// over; its IDs no longer match the library's rows, which removeLocked reads
// off ixEpoch. Callers hold l.mu.
func (l *Library) compactLocked() {
	rank := newRowRank(l.dead)
	l.adoptLocked(gatherLive(l.entries, l.dead, len(l.entries)-l.deadRows), rank, nil)
}

// adoptLocked makes entries the library's rows: they are the rows rank maps
// the current ones to (the live rows, gathered). Every video is pointed at
// its new span, died — rows of the new layout that are already retired —
// becomes the dead set, and a new epoch starts. Callers hold l.mu.
func (l *Library) adoptLocked(entries []*index.Entry, rank rowRank, died []int32) {
	l.entries = entries
	l.rowBytes = 0
	for _, e := range entries {
		l.rowBytes += int64(e.Shot.Row.Bytes())
	}
	for _, ve := range l.videos {
		ve.row = rank.of(ve.row)
	}
	l.dead = make([]uint64, (len(entries)+63)/64)
	for _, r := range died {
		l.dead[r>>6] |= 1 << uint(r&63)
	}
	l.deadRows = len(died)
	l.epoch++
}

// rowRank maps a row of a layout with dead rows to its position among the
// live ones — where gatherLive puts it.
type rowRank struct {
	dead   []uint64
	before []int // before[w] = dead rows in words < w
}

func newRowRank(dead []uint64) rowRank {
	before := make([]int, len(dead)+1)
	for w, word := range dead {
		before[w+1] = before[w] + bits.OnesCount64(word)
	}
	return rowRank{dead: dead, before: before}
}

// of returns the new position of live row r. Rows past the bitset — appended
// after it was taken — count every dead row before them, and the zero rowRank
// (no dead rows) is the identity.
func (rr rowRank) of(r int) int {
	if rr.before == nil {
		return r
	}
	w := r >> 6
	if w >= len(rr.dead) {
		return r - rr.before[len(rr.dead)]
	}
	return r - rr.before[w] - bits.OnesCount64(rr.dead[w]&(1<<uint(r&63)-1))
}

// gatherLive copies the entries that dead does not mark into a fresh array
// of capacity capRows, preserving row order. Rows past the bitset are live.
// Only entry pointers move: every row stays in its video's arena.
func gatherLive(entries []*index.Entry, dead []uint64, capRows int) []*index.Entry {
	isDead := func(r int) bool { return r>>6 < len(dead) && dead[r>>6]&(1<<uint(r&63)) != 0 }
	out := make([]*index.Entry, 0, capRows)
	for r := 0; r < len(entries); {
		if isDead(r) {
			r++
			continue
		}
		start := r
		for r < len(entries) && !isDead(r) {
			r++
		}
		out = append(out, entries[start:r]...)
	}
	return out
}

// encodeJournalRecord serialises a register/replace record for the
// write-ahead log, or returns nil when the library is not durable.
func (l *Library) encodeJournalRecord(kind, name string, res *Result, subcluster string) ([]byte, error) {
	l.mu.RLock()
	durable := l.journal != nil
	l.mu.RUnlock()
	if !durable {
		return nil, nil
	}
	return appendEntryRecord(nil, kind, name, res, subcluster)
}

// appendEntryRecord appends to dst the one record shape a video is ever
// written in — the envelope of internal/wal around the binary entry of
// internal/store — which is what the log holds for a register or replace,
// what a checkpoint snapshot holds per video, and what replication ships; so
// snapshot load, log replay and a follower's apply share one decode path
// (decodeEntryRecord). The entry is encoded straight into the frame.
func appendEntryRecord(dst []byte, kind, name string, res *Result, subcluster string) ([]byte, error) {
	if dst == nil && res != nil {
		// A mined shot's two rows come to ≈ 200 bytes zero-suppressed.
		dst = make([]byte, 0, 256*(1+len(res.Shots)))
	}
	dst, err := wal.AppendRecordHead(dst, kind, name)
	if err == nil {
		dst, err = store.AppendResultEntry(dst, subcluster, res)
	}
	if err != nil {
		return nil, fmt.Errorf("classminer: encoding %s record for %q: %w", kind, name, err)
	}
	return dst, nil
}

// decodeEntryRecord is appendEntryRecord's inverse: the mined result and
// placement a register or replace record carries.
func decodeEntryRecord(rec *wal.Record) (*Result, string, error) {
	sv, err := store.DecodeEntry(rec.Payload)
	if err != nil {
		return nil, "", fmt.Errorf("classminer: decoding %s record for %q: %w", rec.Type, rec.Key, err)
	}
	res, err := store.DecodeResult(sv.Result)
	if err != nil {
		return nil, "", fmt.Errorf("classminer: decoding %s record for %q: %w", rec.Type, rec.Key, err)
	}
	return res, sv.Subcluster, nil
}

// encodeTombstone serialises a delete record, or returns nil when the
// library is not durable.
func (l *Library) encodeTombstone(name string) ([]byte, error) {
	l.mu.RLock()
	durable := l.journal != nil
	l.mu.RUnlock()
	if !durable {
		return nil, nil
	}
	return wal.EncodeRecord(wal.RecordTombstone, name, nil)
}

// DeleteVideoAsCtx unregisters a video at a cost proportional to the video,
// not the library: its rows are marked dead and masked out of the serving
// index (searches stop ranking them before this returns, whether or not the
// index was current), and the generation advances so cached answers stop
// being served. The rows themselves leave with the next full fit (see
// removeLocked for what bounds them meanwhile). On a durable library the
// tombstone is journaled before any state changes — replay applies it even
// over a registration recovered from a checkpoint snapshot, so delete wins
// across a crash. An unknown name is an error wrapping ErrUnknownVideo.
//
// The delete is gated by the library's access policy: the user must be
// allowed to see the video's subcluster, and the check runs under the same
// critical section as the removal — a concurrent replacement can never move
// the video behind a policy wall between the check and the delete. It
// returns an error wrapping ErrForbidden when policy denies the user. A
// traced request records the delete and its WAL tombstone append as child
// spans.
func (l *Library) DeleteVideoAsCtx(ctx context.Context, u User, name string) error {
	return l.deleteVideo(ctx, name, l.visibleTo(u))
}

// deleteVideo journals and applies a tombstone (write); check, when non-nil,
// runs on the entry under the read lock and can veto the delete before
// anything is logged.
func (l *Library) deleteVideo(ctx context.Context, name string, check func(*VideoEntry) error) error {
	sp := trace.StartSpan(ctx, "delete")
	defer sp.End()
	if sp != nil {
		ctx = trace.With(ctx, sp) // nest the write spans under "delete"
	}
	rec, err := l.encodeTombstone(name)
	if err != nil {
		return err
	}
	return l.write(ctx, wal.RecordTombstone, name, rec, func() error {
		ve, ok := l.videos[name]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownVideo, name)
		}
		if check != nil {
			return check(ve)
		}
		return nil
	}, func() {
		l.removeLocked(name)
		l.met.deletes.Inc()
	})
}

// ReplaceResultAsCtx installs an already-mined result under its video name,
// superseding any existing registration (an upsert: absent names register
// fresh). This is the re-ingest path of a living archive — a clinician
// re-records a procedure and the new cut supersedes the old. The victim is
// masked out of the serving index and the successor left for the next
// BuildIndexCtx. On a durable library the whole replacement is a single
// journal record, atomic across crashes.
//
// The replacement is gated by the library's access policy: superseding a
// registration destroys it just as surely as DeleteVideoAsCtx does, so the
// user must be allowed to see the *existing* video's subcluster, checked
// atomically with the swap (ErrForbidden otherwise). Absent names register
// fresh with no gate — there is nothing to destroy. Traced like AddResultCtx.
func (l *Library) ReplaceResultAsCtx(ctx context.Context, u User, res *Result, subcluster string) error {
	if res == nil || res.Video == nil {
		return fmt.Errorf("classminer: nil result")
	}
	if err := l.checkSubcluster(subcluster); err != nil {
		return err
	}
	return l.replace(ctx, res.Video.Name, res, subcluster, l.visibleTo(u))
}

// BuildIndex is BuildIndexCtx without a trace. It stays only because the
// benchmark's probes (cmd/loadgen) call it; ROADMAP item 1(d) retires it.
func (l *Library) BuildIndex() error {
	return l.BuildIndexCtx(context.Background())
}

// BuildIndexCtx (re)builds the hierarchical index over all registered videos
// — the full fit that resets the incremental overlay's staleness and, as a
// by-product, compacts the library. The fit runs outside the lock against a
// snapshot of the rows, so concurrent searches keep answering from the
// previous index until the new one is swapped in, and whatever happened
// *while* the fit ran is caught up under the lock before the swap, in both
// directions: videos registered meanwhile are inserted into the fresh fit,
// videos deleted meanwhile are masked out of it. A fit is therefore never
// thrown away because ingest or deletes raced it. Concurrent builds are
// safe: an older fit never overwrites a newer one. When ctx carries a trace
// span (the rebuilder traces every rebuild), the out-of-lock fit and the
// under-lock catch-up-and-swap each record a child span — the split that
// matters when a rebuild stalls queries (only "swap" runs under the write
// lock).
//
// The snapshot is (row count, a copy of the dead bitset, epoch). The fit
// reads every row in place, packed in its video's arena, through the shot's
// Row. With no dead row it aliases the library's own entry array — a
// capacity-capped view that stays valid while registrations append past it.
// With dead rows it first gathers the live entry pointers, in row order, into
// a fresh array; at the swap the library adopts that array (plus the rows
// appended since) as its own and repoints every video, so the dead rows are
// gone and index entry IDs equal library rows again. Either way the fit is
// the fit BuildIndexCtx would run over the same videos registered into an empty
// library in the same order.
//
// Only the library compacting on its own under the fit (removeLocked: it
// emptied, or more than half its rows were dead) moves rows the snapshot
// cannot be mapped through; such a fit, and one a newer fit overtook, is
// dropped and counted (Stats().IndexFitsDropped) — the caller's staleness
// check simply schedules the next one.
func (l *Library) BuildIndexCtx(ctx context.Context) error {
	sp := trace.SpanFrom(ctx)
	l.mu.RLock()
	n := len(l.entries)
	live := n - l.deadRows
	// A gathered array gets headroom for the rows the swap appends and the
	// registrations after it, and never less room than the array it
	// replaces: registrations that outgrew the last fit's headroom will again
	// at the same pace.
	capRows := max(live+live/4, cap(l.entries))
	entries := l.entries[:n:n]
	var dead []uint64
	if l.deadRows > 0 {
		dead = slices.Clone(l.dead)
	}
	ver, epoch := l.entriesVer, l.epoch
	fitSeconds, rowsFit := l.met.fitSeconds[1], l.met.rowsFit // a refit
	if l.ix == nil {
		fitSeconds = l.met.fitSeconds[0] // the library's first index: boot
	}
	l.mu.RUnlock()
	if live == 0 {
		return fmt.Errorf("classminer: no videos registered")
	}
	start := time.Now()
	fit := sp.Start("fit")
	fit.SetInt("entries", int64(live))
	fit.SetInt("workers", int64(runtime.GOMAXPROCS(0))) // the fit runs on this many goroutines
	var rank rowRank
	if dead != nil {
		rank = newRowRank(dead)
		entries = gatherLive(entries, dead, capRows)
	}
	ix, err := index.Build(entries[:live:live], index.Options{})
	fit.End()
	if err != nil {
		return err
	}
	fitSeconds.ObserveSince(start)
	rowsFit.Add(uint64(live))
	swap := sp.Start("swap") // includes the write-lock wait
	defer swap.End()
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch != l.epoch || ver < l.ixFitVer {
		l.fitsDropped++
		l.met.fitsDropped.Inc()
		return nil
	}
	// Rows past the snapshot are registrations to catch up on, all or
	// nothing: a new concept among them leaves the fit installed but stale.
	// Dead ones go in too, so that IDs keep matching rows, and are masked
	// with the rest below.
	tail := l.entries[n:]
	caughtUp := true
	if nix, ierr := ix.InsertAll(tail); ierr != nil {
		caughtUp = false
	} else {
		ix = nix
	}
	// Rows that died since the snapshot, numbered as the fit numbers them.
	var died []int32
	for w, word := range l.dead {
		if w < len(dead) {
			word &^= dead[w]
		}
		for ; word != 0; word &= word - 1 {
			died = append(died, int32(rank.of(w<<6+bits.TrailingZeros64(word))))
		}
	}
	ix, _ = ix.RemoveIDs(died)
	if dead != nil {
		l.adoptLocked(append(entries, tail...), rank, died)
	}
	l.ix, l.ixEpoch = ix, l.epoch
	l.ixFitVer = ver
	if caughtUp {
		l.ixVer = l.entriesVer
	} else {
		l.ixVer = ver
	}
	l.fits++
	l.gen++
	return nil
}

// IndexStaleness reports the serving index's incremental-overlay fraction:
// how much of it (entries inserted or masked since the last full fit,
// relative to that fit's size) is approximation on top of the fitted
// structure. 0 means freshly fit or no index; the rebuild budget compares
// against it.
func (l *Library) IndexStaleness() float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.ix == nil {
		return 0
	}
	return l.ix.Staleness()
}

// RebuildNeeded reports whether a full index rebuild is warranted: there is
// something to index and either no current index serves (a mutation the
// incremental path could not absorb, or none was ever built) or the
// incremental overlay has outgrown the staleness budget. The serving
// layer's coalesced rebuilder polls this instead of rebuilding per
// mutation.
func (l *Library) RebuildNeeded(budget float64) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.entries) == l.deadRows {
		return false
	}
	if l.ix == nil || l.entriesVer != l.ixVer {
		return true
	}
	return l.ix.Staleness() > budget
}

// IndexStale reports whether videos were registered after the installed
// index was built (searches then answer from the older snapshot).
func (l *Library) IndexStale() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix == nil || l.entriesVer != l.ixVer
}

// LibraryStats is a point-in-time snapshot of a library's size and index
// state, the payload of the daemon's /v1/stats endpoint.
type LibraryStats struct {
	Videos       int  `json:"videos"`
	Shots        int  `json:"shots"`
	IndexedShots int  `json:"indexedShots"`
	IndexStale   bool `json:"indexStale"`
	// IndexStaleness is the serving index's incremental-overlay fraction
	// (inserted+removed since the last full fit, relative to that fit);
	// the rebuild budget is compared against it.
	IndexStaleness float64 `json:"indexStaleness"`
	Generation     int64   `json:"generation"`
	// DeadRows counts rows of deleted or replaced videos the library still
	// holds; the next full fit (or, without one, the library itself once
	// they outnumber the live rows) compacts them away.
	DeadRows int `json:"deadRows"`
	// IndexFits counts the full fits installed, IndexFitsDropped the ones
	// thrown away at the swap (BuildIndexCtx says when).
	IndexFits        int64 `json:"indexFits"`
	IndexFitsDropped int64 `json:"indexFitsDropped"`
	// FeatureRowBytes is what the feature rows the library holds take in
	// their arenas — presence words, values and offsets, each row held once
	// and zero-suppressed — over Shots + DeadRows rows.
	FeatureRowBytes int64 `json:"featureRowBytes"`
	// WAL is the durable log's lag since its last checkpoint; nil when the
	// library is not durable.
	WAL *WALStats `json:"wal,omitempty"`
}

// Stats returns a consistent snapshot of the library's counters.
func (l *Library) Stats() LibraryStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	st := LibraryStats{
		Videos:           len(l.videos),
		Shots:            len(l.entries) - l.deadRows,
		IndexStale:       l.ix == nil || l.entriesVer != l.ixVer,
		Generation:       l.gen,
		DeadRows:         l.deadRows,
		IndexFits:        l.fits,
		IndexFitsDropped: l.fitsDropped,
		FeatureRowBytes:  l.rowBytes,
	}
	if l.ix != nil {
		st.IndexedShots = l.ix.Size()
		st.IndexStaleness = l.ix.Staleness()
	}
	if l.journal != nil {
		ws := l.journal.Stats()
		st.WAL = &ws
	}
	return st
}

// Allowed reports whether the user may access the given concept path under
// the library's current policy. The serving layer uses it to gate browsing
// endpoints with the same rules that filter search results.
func (l *Library) Allowed(u User, path []string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.policy.Allowed(u, path)
}

// HasSubcluster reports whether name is a valid placement target for
// AddResultCtx (a subcluster-level concept).
func (l *Library) HasSubcluster(name string) bool {
	return l.checkSubcluster(name) == nil
}

// ConceptPath returns the root-exclusive hierarchy path of a concept (e.g.
// ["medical education", "medicine"] for "medicine"), or nil when unknown.
// It is the single source of the path shape policy rules match against.
func (l *Library) ConceptPath(name string) []string {
	n := l.hierarchy.Find(name)
	if n == nil {
		return nil
	}
	return n.Path()
}

// Video returns a registered video's entry, or nil.
func (l *Library) Video(name string) *VideoEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.videos[name]
}

// VideoNames lists the registered videos in sorted order.
func (l *Library) VideoNames() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.videoNamesLocked()
}

// videoNamesLocked is VideoNames for a caller that holds l.mu.
func (l *Library) videoNamesLocked() []string {
	names := make([]string, 0, len(l.videos))
	for name := range l.videos {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Size returns the number of registered shots (rows of deleted videos the
// library has not compacted away yet do not count).
func (l *Library) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries) - l.deadRows
}

// QueryDimError is the error a search returns for a query whose length is
// not the feature dimensionality of the index serving it. The
// dimensionality is the library's, and it changes when an emptied library
// registers videos of another width.
type QueryDimError struct {
	Got, Want int
}

func (e *QueryDimError) Error() string {
	return fmt.Sprintf("classminer: query has %d dims, index has %d", e.Got, e.Want)
}

// SearchIntoCtx runs a query-by-example over the library as the given user:
// the hierarchical index finds the k nearest shots and the access-control
// policy filters what the user may see. The §6.2 cost statistics of the
// index traversal are returned alongside.
//
// The ranked, policy-filtered hits are written into dst (grown only when
// capacity is insufficient; nil is fine) in the (distance, video name, shot
// index) total order — index.SortHits: which k hits the index chose is its
// own, but how exact ties among them are listed does not depend on the
// order videos were registered in. A caller that reuses one buffer —
// the serving layer pools them per request — makes the whole query path
// allocation-free. The returned slice aliases dst.
//
// When ctx carries a trace span, the index stages (project/scan/rank — see
// Index.Search) and the policy filter record child spans under one
// "search" span. Untraced and unsampled callers pay nothing — the span
// lookup on a bare context is a nil value read, keeping the zero-alloc query
// contract.
func (l *Library) SearchIntoCtx(ctx context.Context, dst []SearchHit, u User, query []float64, k int) ([]SearchHit, SearchStats, error) {
	sp := trace.StartSpan(ctx, "search")
	defer sp.End()
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.ix == nil {
		return nil, SearchStats{}, fmt.Errorf("classminer: index not built (call BuildIndex)")
	}
	if d := l.ix.Dim(); len(query) != d {
		return nil, SearchStats{}, &QueryDimError{Got: len(query), Want: d}
	}
	hits, stats := l.ix.Search(dst, query, k, sp)
	fsp := sp.Start("filter")
	hits = access.FilterInPlace(l.policy, u, hits, func(h SearchHit) []string { return h.Entry.Path })
	fsp.End()
	index.SortHits(hits)
	return hits, stats, nil
}

// SceneRef names one scene of one registered video.
type SceneRef struct {
	VideoName string
	Scene     *Scene
}

// ScenesByEvent answers queries like "show me all patient–doctor dialogs
// within the library": every mined scene of the category the user is
// allowed to see, ordered by video name and then by scene index, so the
// same library answers the same request with the same list.
func (l *Library) ScenesByEvent(u User, kind EventKind) []SceneRef {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []SceneRef
	for _, name := range l.videoNamesLocked() {
		ve := l.videos[name]
		leaf := concept.SceneConcept(ve.Subcluster, kind)
		path := append(l.hierarchy.Find(ve.Subcluster).Path(), leaf)
		if !l.policy.Allowed(u, path) {
			continue
		}
		for _, sc := range ve.Result.Scenes {
			if sc.Event == kind {
				out = append(out, SceneRef{VideoName: name, Scene: sc})
			}
		}
	}
	return out
}

// savedVideo is one registered video as a snapshot sees it.
type savedVideo struct {
	name string
	ve   *VideoEntry
}

func (v savedVideo) compareName(w savedVideo) int { return strings.Compare(v.name, w.name) }

// settledVideos lists the registered videos in name order — what a
// checkpoint snapshots.
//
// It takes wmu: a mutation whose record is journaled but not yet applied
// holds it, so the list shows every record the log holds before the
// checkpoint's cut (the wal.Engine.SetSource contract) — without it, such a
// record would be pruned with its segment and missed by the snapshot.
// Encoding the list is the caller's business and runs outside both locks
// (registered Results are immutable), so a checkpoint of a large library
// stalls neither searches nor writers for longer than the copy.
func (l *Library) settledVideos() []savedVideo {
	l.wmu.Lock()
	l.mu.RLock()
	vids := make([]savedVideo, 0, len(l.videos))
	for name, ve := range l.videos {
		vids = append(vids, savedVideo{name, ve})
	}
	l.mu.RUnlock()
	l.wmu.Unlock()
	slices.SortFunc(vids, savedVideo.compareName)
	return vids
}

// Recover opens (creating if needed) a durable library rooted at dir: it
// loads the newest checkpoint snapshot, replays the write-ahead log tail
// over it, and attaches the journal so every subsequent registration is
// durable before it is visible. A crashed process therefore restarts with
// exactly the registrations it acknowledged (under SyncAlways, the default;
// SyncNever, for tests and bulk loads, survives a process crash but not a
// power loss).
//
// Everything in dir but its MANIFEST is binary — one record shape
// (appendEntryRecord) in log, snapshot and replication stream alike; the
// package comment of internal/wal draws the layers — and recovery parses no
// JSON. A directory in a format an earlier build wrote is refused with an
// error wrapping wal.ErrRetiredFormat, which names the last build that
// converts it, and is left untouched. A snapshot that is damaged or
// incomplete fails the recovery, naming the file; a damaged log tail does
// not, it ends the replay.
//
// The recovered index is left stale — call BuildIndexCtx once before serving
// searches. Close the library when done to release the engine. The analyzer
// is ignored, as NewLibrary's is (pass nil); the frozen benchmark pins the
// parameter until ROADMAP item 1(d).
func Recover(dir string, _ *Analyzer, opts DurableOptions) (*Library, error) {
	eng, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	l := NewLibrary(nil)
	if err := recoverInto(eng, l, opts.Logf); err != nil {
		eng.Close()
		return nil, err
	}
	return l, nil
}

// recoverInto loads eng's snapshot and replays its log into l, then
// attaches eng to it.
//
// Snapshot and log are read by one loop. Both are runs of the same frames
// holding the same records (a snapshot's are all registrations), so the
// reader — this goroutine — only checks each frame's CRC and reads the
// record's key off its envelope, and hands the record to an owner goroutine;
// decoding the entry and installing it, the cost of a recovery, is the
// owner's and runs beside the read. The owner sees the records in file
// order — the snapshot's before the log's. Records travel in batches cut by
// size: waking the owner per record costs more than reading one, and a slow
// owner holds back a bounded amount of input.
//
// The two differ in what damage means. The log's tail is where a crash lands:
// replay stops cleanly at the first bad frame and the prefix is the state. A
// snapshot is all or nothing (wal.ReadSnapshot): any damage, or a record
// count short of its header, fails the recovery with the file's name.
//
// A frame in the retired JSON envelope fails the recovery (wal.ErrRetiredFormat);
// wal.Open has refused every other retired layout before this runs.
//
// logf, when non-nil, is told how many log records the replay skipped.
func recoverInto(eng *wal.Engine, l *Library, logf func(string, ...any)) error {
	const batchBytes = 256 << 10
	type replayed struct {
		rec     wal.Record
		fromLog bool // read off the log, not the snapshot
	}
	queue := make(chan []replayed, 1) // one batch queued while the next fills
	var filling []replayed
	var fillBytes int
	var ownerErr error
	var failed atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for recs := range queue {
			for k := 0; k < len(recs) && ownerErr == nil; k++ {
				if ownerErr = l.applyRecord(context.Background(), &recs[k].rec, recs[k].fromLog); ownerErr != nil {
					failed.Store(true) // the reader stops at its next frame
				}
			}
		}
	}()
	var rec wal.Record // envelope scratch, copied into the owner's batch
	decode := func(frame []byte) error {
		if failed.Load() {
			return errReplayAborted
		}
		if err := wal.DecodeRecordInto(&rec, frame); err != nil {
			return fmt.Errorf("classminer: %w", err)
		}
		return nil
	}
	// route queues the record in rec for the owner.
	route := func(frame []byte, fromLog bool) {
		filling = append(filling, replayed{rec, fromLog})
		if fillBytes += len(frame); fillBytes >= batchBytes {
			queue <- filling
			filling, fillBytes = nil, 0
		}
	}
	var err error
	if snap := eng.SnapshotPath(); snap != "" {
		err = readSnapshot(snap, l, func(frame []byte) error {
			if err := decode(frame); err != nil {
				return err
			}
			if rec.Type != wal.RecordRegister {
				return fmt.Errorf("classminer: a snapshot holds a %s record for %q", rec.Type, rec.Key)
			}
			route(frame, false)
			return nil
		})
		if err != nil {
			err = fmt.Errorf("classminer: snapshot %s: %w", snap, err)
		}
	}
	// The log is read twice. The first pass reads envelopes only and notes,
	// per key, the last record that settles the key's state whatever came
	// before it (a tombstone or a replace); the second replays — and skips
	// every record a later one of those supersedes. A recovery then decodes
	// and installs what survives, not what was ever written: superseded
	// records stay on the log until the next checkpoint prunes their
	// segments, and meanwhile cost a boot their CRC check and nothing more.
	settled := map[string]int{} // key → ordinal of its last tombstone or replace
	skipped := 0
	replay := func(each func(n int, frame []byte)) error {
		n := 0
		return eng.Replay(func(frame []byte) error {
			if err := decode(frame); err != nil {
				return err
			}
			each(n, frame)
			n++
			return nil
		})
	}
	if err == nil {
		err = replay(func(n int, _ []byte) {
			if rec.Type != wal.RecordRegister {
				settled[rec.Key] = n
			}
		})
	}
	if err == nil {
		err = replay(func(n int, frame []byte) {
			if last, ok := settled[rec.Key]; ok && n < last {
				skipped++
			} else {
				route(frame, true)
			}
		})
	}
	if err == nil && len(filling) > 0 {
		queue <- filling
	}
	close(queue)
	<-done
	if ownerErr != nil {
		return ownerErr
	}
	if err != nil {
		return err
	}
	if skipped > 0 && logf != nil {
		logf("classminer: replay skipped %d of %d log records (superseded by a later delete or replace)", skipped, eng.Stats().Records)
	}
	l.mu.Lock()
	l.journal = eng
	l.mu.Unlock()
	eng.SetSource(l.writeCheckpoint)
	if eng.ReplayDamaged() {
		// A broken chain strands the records past the damage (and any future
		// appends, which land after them) from the next replay. A checkpoint
		// cures it: the fresh snapshot holds everything just recovered, and
		// the segments behind it are pruned.
		if err := eng.Checkpoint(); err != nil {
			return fmt.Errorf("classminer: checkpointing the recovered state: %w", err)
		}
	}
	return nil
}

// readSnapshot feeds every record of the frame snapshot at path to record,
// after sizing l for what its header announces: the library reserves the
// rows once instead of doubling its way there.
func readSnapshot(path string, l *Library, record func(frame []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	return wal.ReadSnapshot(f, func(h wal.SnapshotHeader) error {
		// The header is a hint, so it is believed only as far as the file can
		// back it: a written value costs at least its presence bit.
		if h.Dim > 0 && int64(h.Rows) <= 8*fi.Size()/int64(h.Dim) {
			l.reserve(h.Rows)
		}
		return nil
	}, record)
}

// reserve gives an empty library room for rows rows. Their features need
// none: each video's arrive in an arena of their own.
func (l *Library) reserve(rows int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 && cap(l.entries) < rows {
		l.entries = make([]*index.Entry, 0, rows)
		l.dead = make([]uint64, 0, (rows+63)/64)
	}
}

// errReplayAborted stops the reader once an owner has failed; the owner's
// error is the one reported.
var errReplayAborted = errors.New("classminer: replay aborted")

// Engine exposes the library's write-ahead-log engine, or nil when the
// library is not durable. Replication (internal/repl) ships, pins and seeds
// the engine's log directly; every other caller should stay behind the
// Library API.
func (l *Library) Engine() *wal.Engine {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.journal
}

// ApplyRecord applies one replicated log record through the same mutation
// paths the leader used — a follower's index is built by the identical
// incremental Insert/Remove sequence, and the record is journaled into this
// library's own log, so an applying follower is itself durable,
// crash-recoverable, and promotable. Application is idempotent, which is
// what makes re-apply after a crash mid-batch safe: a register whose name
// already exists is a no-op (the first apply won and replay-skip semantics
// say the incumbent stays), a tombstone for an unknown name is a no-op, and
// a replace is an upsert either way.
func (l *Library) ApplyRecord(ctx context.Context, rec *wal.Record) error {
	return l.applyRecord(ctx, rec, true)
}

// applyRecord is the one record-apply path: a follower's (ApplyRecord) and
// recovery's, which runs it before the journal is attached, so nothing is
// re-logged. A tombstone for an unknown name is a no-op — it may straddle a
// checkpoint that already dropped the video — and a replace is an upsert.
// dupOK tolerates a register whose name is already held: always on a
// follower, and in recovery only for a log record, whose duplicate straddles
// the last checkpoint (it is both in the snapshot and on the log tail, and
// the snapshot copy won); a name twice in one snapshot is real.
func (l *Library) applyRecord(ctx context.Context, rec *wal.Record, dupOK bool) error {
	switch rec.Type {
	case wal.RecordTombstone:
		if err := l.deleteVideo(ctx, rec.Key, nil); err != nil && !errors.Is(err, ErrUnknownVideo) {
			return err
		}
		return nil
	case wal.RecordRegister, wal.RecordReplace:
		res, subcluster, err := decodeEntryRecord(rec)
		if err != nil {
			return err
		}
		if err := l.checkSubcluster(subcluster); err != nil {
			return err
		}
		if rec.Type == wal.RecordReplace {
			return l.replace(ctx, res.Video.Name, res, subcluster, nil)
		}
		err = l.register(ctx, res.Video.Name, res, subcluster)
		if dupOK && errors.Is(err, ErrDuplicateVideo) {
			return nil
		}
		return err
	default:
		return fmt.Errorf("classminer: unknown record type %q", rec.Type)
	}
}

// ReseedFromSnapshot converges the library onto a leader checkpoint
// snapshot without wiping: videos absent from the snapshot are tombstoned,
// every snapshot record is applied as a replacement (an upsert, so entries
// whose content drifted are refreshed too), and all of it flows through the
// normal journaled mutation paths, making the reseed itself crash-safe and
// re-runnable. This is the follower's fallback when its cursor falls behind
// the leader's checkpoint horizon: the snapshot plus the log tail after it
// is exactly the leader's state. r is the leader's snapshot file as it
// stands on the leader's disk (wal.ReadSnapshot's format) and is read whole,
// and checked whole, before anything is touched — a stream cut short
// converges on nothing. r may be nil — a leader that has never checkpointed
// has an empty snapshot, and the whole history arrives via the log instead.
// Reports how many videos were installed and removed.
func (l *Library) ReseedFromSnapshot(ctx context.Context, r io.Reader) (installed, removed int, err error) {
	var recs []wal.Record
	keep := map[string]bool{}
	if r != nil {
		err := wal.ReadSnapshot(r, nil, func(frame []byte) error {
			rec, err := wal.DecodeRecord(frame)
			if err == nil && rec.Type != wal.RecordRegister {
				err = fmt.Errorf("a snapshot holds a %s record for %q", rec.Type, rec.Key)
			}
			recs = append(recs, rec)
			keep[rec.Key] = true
			return err
		})
		if err != nil {
			return 0, 0, fmt.Errorf("classminer: leader snapshot: %w", err)
		}
	}
	for _, name := range l.VideoNames() {
		if keep[name] {
			continue
		}
		if derr := l.deleteVideo(ctx, name, nil); derr != nil && !errors.Is(derr, ErrUnknownVideo) {
			return installed, removed, derr
		}
		removed++
	}
	for i := range recs {
		res, subcluster, err := decodeEntryRecord(&recs[i])
		if err != nil {
			return installed, removed, err
		}
		if err := l.checkSubcluster(subcluster); err != nil {
			return installed, removed, err
		}
		if err := l.replace(ctx, res.Video.Name, res, subcluster, nil); err != nil {
			return installed, removed, err
		}
		installed++
	}
	return installed, removed, nil
}

// Durable reports whether registrations are write-ahead logged (the
// library came from Recover).
func (l *Library) Durable() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.journal != nil
}

// writeCheckpoint is the snapshot writer the engine's checkpoints call. A
// snapshot is a wal.SnapshotWriter stream — a header, then the register
// record of every video in name order — and it is written one video at a
// time: no more than one encoded video exists at once. The library is read
// under wmu after the engine's cut (settledVideos), so it shows every record
// journaled before the cut — the SetSource contract.
func (l *Library) writeCheckpoint(w io.Writer) error {
	vids := l.settledVideos()
	h := wal.SnapshotHeader{Videos: len(vids)}
	for _, v := range vids {
		h.Rows += v.ve.rows
		if shots := v.ve.Result.Shots; h.Dim == 0 && len(shots) > 0 {
			h.Dim = shots[0].FeatureLen()
		}
	}
	sw, err := wal.NewSnapshotWriter(w, h)
	if err != nil {
		return err
	}
	var rec []byte // one video's record, reused
	for _, v := range vids {
		if rec, err = appendEntryRecord(rec[:0], wal.RecordRegister, v.name, v.ve.Result, v.ve.Subcluster); err != nil {
			return err
		}
		if err := sw.Append(rec); err != nil {
			return err
		}
	}
	return sw.Close()
}

// Checkpoint folds the write-ahead log into a fresh snapshot and prunes
// the superseded segments, bounding the next recovery's replay; it is also
// the one way the log that deletes and replacements left dead is reclaimed. The
// background checkpointer calls this when the configured lag thresholds
// trip; the daemon's admin endpoint calls it on demand. It is an error on
// a non-durable library.
func (l *Library) Checkpoint() error {
	l.mu.RLock()
	eng := l.journal
	l.mu.RUnlock()
	if eng == nil {
		return fmt.Errorf("classminer: library is not durable")
	}
	return eng.Checkpoint()
}

// WALStats reports the durable log's lag since its last checkpoint. ok is
// false when the library is not durable.
func (l *Library) WALStats() (WALStats, bool) {
	l.mu.RLock()
	eng := l.journal
	l.mu.RUnlock()
	if eng == nil {
		return WALStats{}, false
	}
	return eng.Stats(), true
}

// Close releases the durable engine (final fsync included). It is a no-op
// on a non-durable library; the library must not register videos after.
func (l *Library) Close() error {
	l.mu.RLock()
	eng := l.journal
	l.mu.RUnlock()
	if eng == nil {
		return nil
	}
	return eng.Close()
}
