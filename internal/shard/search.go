package shard

// Scatter-gather search. The first non-empty shard ranks its top-k on the
// caller's goroutine, straight into the caller's buffer; every further
// non-empty shard ranks its own on a spawned goroutine into a pooled buffer.
// The router then merges by the exact full-space distance every shard's
// index already reports as Dist — nothing is recomputed — under the
// (distance, video name, shot index) total order, which unlike a shard's
// entry IDs means the same thing on every shard. With one shard nothing is
// spawned and the merge is a sort of k hits, so the router costs what the
// shard costs. The merged ranking — and therefore the bytes /v1/search
// returns — is deterministic, and identical for every shard count whenever k
// is at least the library's live shot count: every shard's index then visits
// every leaf and returns all its live shots (the golden-equivalence tests pin
// this).

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"classminer"
	"classminer/internal/index"
)

// hitsPool recycles the spawned shards' result buffers across searches.
var hitsPool = sync.Pool{
	New: func() any {
		s := make([]classminer.SearchHit, 0, 64)
		return &s
	},
}

// gather is the searches in flight on spawned goroutines, one slot per
// shard (slots of shards that did not spawn stay zero).
type gather struct {
	wg   sync.WaitGroup
	outs []gathered
}

type gathered struct {
	buf  *[]classminer.SearchHit // pooled; nil when the shard did not spawn
	hits []classminer.SearchHit
	st   classminer.SearchStats
	err  error
}

// search runs shard i's top-k into a pooled buffer.
func (g *gather) search(ctx context.Context, i int, sh *classminer.Library, u classminer.User, query []float64, k int) {
	defer g.wg.Done()
	o := &g.outs[i]
	o.buf = hitsPool.Get().(*[]classminer.SearchHit)
	o.hits, o.st, o.err = sh.SearchIntoCtx(ctx, (*o.buf)[:0], u, query, k)
}

// collect waits for the spawned searches, adds their work to stats, appends
// their errors to errs and returns their hit lists.
func (g *gather) collect(stats *classminer.SearchStats, errs []error) ([][]classminer.SearchHit, []error) {
	g.wg.Wait()
	var lists [][]classminer.SearchHit
	for i := range g.outs {
		o := &g.outs[i]
		switch {
		case o.buf == nil:
		case o.err != nil:
			errs = append(errs, fmt.Errorf("shard %d: %w", i, o.err))
		default:
			stats.DistanceOps += o.st.DistanceOps
			stats.FloatOps += o.st.FloatOps
			stats.Candidates += o.st.Candidates
			stats.Exact += o.st.Exact
			stats.Closed += o.st.Closed
			lists = append(lists, o.hits)
		}
	}
	return lists, errs
}

// release returns the pooled buffers, keeping any growth the shard searches
// did. The hits collect returned alias them and must not be used afterwards.
func (g *gather) release() {
	for i := range g.outs {
		if o := &g.outs[i]; o.buf != nil {
			if o.hits != nil {
				*o.buf = o.hits[:0]
			}
			hitsPool.Put(o.buf)
		}
	}
}

// SearchIntoCtx ranks the k nearest shots across all shards as the given
// user. It fans the query across every non-empty shard — the first on the
// caller's goroutine into dst (nil is fine), the rest concurrently — and
// merges the per-shard top-k into dst's backing array. Stats sum the per-shard index work; the merge
// adds none. Shard ACL filtering applies before the merge, so a user only
// ever ranks what they may see.
func (l *Library) SearchIntoCtx(ctx context.Context, dst []classminer.SearchHit, u classminer.User, query []float64, k int) ([]classminer.SearchHit, classminer.SearchStats, error) {
	first := -1
	var g *gather // allocated by the first spawn
	for i, sh := range l.shards {
		if sh.Size() == 0 {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		if g == nil {
			g = &gather{outs: make([]gathered, len(l.shards))}
		}
		g.wg.Add(1)
		go g.search(ctx, i, sh, u, query, k)
	}
	if first < 0 {
		return nil, classminer.SearchStats{}, fmt.Errorf("classminer: index not built (call BuildIndex)")
	}
	hits, stats, err := l.shards[first].SearchIntoCtx(ctx, dst, u, query, k)
	var (
		lists [][]classminer.SearchHit
		errs  []error
	)
	if err != nil {
		errs = append(errs, fmt.Errorf("shard %d: %w", first, err))
	}
	if g != nil {
		lists, errs = g.collect(&stats, errs)
		defer g.release()
	}
	if len(errs) > 0 {
		return nil, stats, errors.Join(errs...)
	}
	return index.MergeHits(hits, lists, k), stats, nil
}

// SearchBatch runs many queries, fanning whole batches to each shard (the
// shard-level batch path parallelizes internally) and merging per query.
func (l *Library) SearchBatch(u classminer.User, queries [][]float64, k int) ([][]classminer.SearchHit, []classminer.SearchStats, error) {
	type shardOut struct {
		hits [][]classminer.SearchHit
		st   []classminer.SearchStats
		err  error
		ran  bool
	}
	outs := make([]shardOut, len(l.shards))
	var wg sync.WaitGroup
	for i, sh := range l.shards {
		if sh.Size() == 0 {
			continue
		}
		outs[i].ran = true
		wg.Add(1)
		go func(o *shardOut, sh *classminer.Library) {
			defer wg.Done()
			o.hits, o.st, o.err = sh.SearchBatch(u, queries, k)
		}(&outs[i], sh)
	}
	wg.Wait()

	var errs []error
	ran := false
	for i := range outs {
		if !outs[i].ran {
			continue
		}
		ran = true
		if outs[i].err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, outs[i].err))
		}
	}
	if !ran {
		return nil, nil, fmt.Errorf("classminer: index not built (call BuildIndex)")
	}
	if len(errs) > 0 {
		return nil, nil, errors.Join(errs...)
	}

	hits := make([][]classminer.SearchHit, len(queries))
	stats := make([]classminer.SearchStats, len(queries))
	lists := make([][]classminer.SearchHit, 0, len(l.shards))
	for q := range queries {
		lists = lists[:0]
		for i := range outs {
			if !outs[i].ran {
				continue
			}
			lists = append(lists, outs[i].hits[q])
			stats[q].DistanceOps += outs[i].st[q].DistanceOps
			stats[q].FloatOps += outs[i].st[q].FloatOps
			stats[q].Candidates += outs[i].st[q].Candidates
			stats[q].Exact += outs[i].st[q].Exact
			stats[q].Closed += outs[i].st[q].Closed
		}
		hits[q] = index.MergeHits(nil, lists, k)
	}
	return hits, stats, nil
}
