package shard

// Scatter-gather search. Each non-empty shard ranks its own top-k on a
// goroutine (per-shard hit buffers are pooled), then the router merges by
// exact full-space distance — what every shard's index reports as Dist, and
// what MergeHits recomputes per candidate — under the
// (distance, video name, shot index) total order, which unlike a shard's
// entry IDs means the same thing on every shard. The merged ranking — and
// therefore the bytes /v1/search returns — is deterministic and identical
// for every shard count whenever per-shard candidate coverage is complete
// (k at least the largest shard's size forces the index's whole-leaf
// fallback; the golden-equivalence tests pin this).

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"classminer"
	"classminer/internal/index"
)

// hitsPool recycles per-shard result buffers across searches.
var hitsPool = sync.Pool{
	New: func() any {
		s := make([]classminer.SearchHit, 0, 64)
		return &s
	},
}

// Search ranks the k nearest shots across all shards as the given user.
func (l *Library) Search(u classminer.User, query []float64, k int) ([]classminer.SearchHit, classminer.SearchStats, error) {
	return l.SearchInto(nil, u, query, k)
}

// SearchInto is Search reusing dst's backing array for the merged hits.
func (l *Library) SearchInto(dst []classminer.SearchHit, u classminer.User, query []float64, k int) ([]classminer.SearchHit, classminer.SearchStats, error) {
	return l.SearchIntoCtx(context.Background(), dst, u, query, k)
}

// SearchIntoCtx fans the query across every non-empty shard concurrently
// and merges the per-shard top-k into dst. Stats sum the per-shard index
// work plus the router's exact re-rank (one full-space distance per
// candidate). Shard ACL filtering applies before the merge, so a user only
// ever ranks what they may see.
func (l *Library) SearchIntoCtx(ctx context.Context, dst []classminer.SearchHit, u classminer.User, query []float64, k int) ([]classminer.SearchHit, classminer.SearchStats, error) {
	type shardOut struct {
		buf  *[]classminer.SearchHit
		hits []classminer.SearchHit
		st   classminer.SearchStats
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
		go func(o *shardOut, sh Shard) {
			defer wg.Done()
			o.buf = hitsPool.Get().(*[]classminer.SearchHit)
			o.hits, o.st, o.err = sh.SearchIntoCtx(ctx, (*o.buf)[:0], u, query, k)
		}(&outs[i], sh)
	}
	wg.Wait()

	var (
		stats classminer.SearchStats
		lists [][]classminer.SearchHit
		errs  []error
		ran   bool
	)
	for i := range outs {
		o := &outs[i]
		if !o.ran {
			continue
		}
		ran = true
		if o.err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, o.err))
			continue
		}
		stats.DistanceOps += o.st.DistanceOps
		stats.FloatOps += o.st.FloatOps
		stats.Candidates += o.st.Candidates
		lists = append(lists, o.hits)
	}
	release := func() {
		for i := range outs {
			if o := &outs[i]; o.buf != nil {
				// Keep any growth the shard search did.
				if o.hits != nil {
					*o.buf = o.hits[:0]
				}
				hitsPool.Put(o.buf)
			}
		}
	}
	if !ran {
		release()
		return nil, classminer.SearchStats{}, fmt.Errorf("classminer: index not built (call BuildIndex)")
	}
	if len(errs) > 0 {
		release()
		return nil, stats, errors.Join(errs...)
	}
	mc := index.MergeCost(lists, len(query))
	stats.DistanceOps += mc.DistanceOps
	stats.FloatOps += mc.FloatOps
	merged := index.MergeHits(dst, query, lists, k)
	release()
	return merged, stats, nil
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
		go func(o *shardOut, sh Shard) {
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
		}
		mc := index.MergeCost(lists, len(queries[q]))
		stats[q].DistanceOps += mc.DistanceOps
		stats[q].FloatOps += mc.FloatOps
		hits[q] = index.MergeHits(nil, queries[q], lists, k)
	}
	return hits, stats, nil
}
