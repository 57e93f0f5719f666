package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"classminer"
	"classminer/internal/access"
	"classminer/internal/admit"
	"classminer/internal/index"
	"classminer/internal/mat"
	"classminer/internal/server"
	"classminer/internal/shard"
	"classminer/internal/store"
	"classminer/internal/wal"
)

// Layer probes call each layer's public functions in-process, on the corpus
// and queries the daemon was given, with fixed op counts on one goroutine.
// They time a layer with nothing around it, which is what a change to that
// layer moves first; the HTTP workloads then say whether a client sees it.

// benchUser is the identity the bench token authenticates as.
var benchUser = access.User{Name: "dr.bench", Clearance: access.Clinician, Roles: []string{"surgeon"}}

// perOp times three rounds of n calls of fn and returns the fastest round's
// mean in microseconds (interference from outside only ever slows a round).
func perOp(n int, fn func(i int)) float64 {
	best := time.Duration(math.MaxInt64)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		best = min(best, time.Since(t0))
	}
	return float64(best.Microseconds()) / float64(n)
}

// searchLibrary is what the probes need of a plain or a sharded library.
type searchLibrary interface {
	server.Library
	AddResult(res *classminer.Result, subcluster string) error
	BuildIndex() error
}

// fillLibrary registers the base corpus in ingest order and fits the index.
func fillLibrary(lib searchLibrary, co *corpus) error {
	for i, sr := range co.saved {
		res, err := store.DecodeResult(sr)
		if err != nil {
			return err
		}
		res.Video.Name = co.names[i]
		if err := lib.AddResult(res, subclusters[i%len(subclusters)]); err != nil {
			return err
		}
	}
	return lib.BuildIndex()
}

func probeLibrarySearch(lib searchLibrary, queries [][]float64) float64 {
	dst := make([]classminer.SearchHit, 0, 128)
	ctx := context.Background()
	return perOp(len(queries), func(i int) {
		dst, _, _ = lib.SearchIntoCtx(ctx, dst[:0], benchUser, queries[i], searchK)
	})
}

// layerProbes fills every probe.* metric that depends only on the corpus.
func layerProbes(out metricSet, co *corpus, scratch string) error {
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	ids := qualitySample(len(co.entries))
	queries := make([][]float64, len(ids))
	for i, id := range ids {
		queries[i] = co.entries[id].Shot.Feature()
	}

	// internal/index.
	feats := mat.NewDense(len(co.entries), co.dim)
	for i, e := range co.entries {
		copy(feats.Data[i*co.dim:(i+1)*co.dim], e.Shot.Feature())
	}
	var ix *index.Index
	var builds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		built, err := index.BuildMatrix(co.entries, feats, index.Options{})
		if err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t0)))
		ix = built
	}
	set("probe.index.build_ms", median(builds))
	dst := make([]index.Result, 0, 128)
	searchUS := perOp(len(queries), func(i int) { dst, _ = ix.SearchInto(dst[:0], queries[i], searchK) })
	nFlat := min(100, len(queries))
	flatUS := perOp(nFlat, func(i int) { index.FlatSearch(co.entries, queries[i], searchK) })
	set("probe.index.search_us", searchUS)
	set("probe.index.flat_us", flatUS)
	if searchUS > 0 {
		set("probe.index.speedup_vs_flat", flatUS/searchUS)
	}
	grown := ix
	nInsert := min(250, len(co.entries))
	var insertErr error
	set("probe.index.insert_us", perOp(nInsert, func(i int) {
		e := *co.entries[i]
		e.VideoName = "probe-insert"
		next, err := grown.Insert(&e)
		if err != nil {
			insertErr = err
			return
		}
		grown = next
	}))
	if insertErr != nil {
		return insertErr
	}

	// The library, the shard router at N=1 and N=4, and the serving edge.
	analyzer, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		return err
	}
	lib := classminer.NewLibrary(analyzer)
	if err := fillLibrary(lib, co); err != nil {
		return err
	}
	set("probe.library.search_us", probeLibrarySearch(lib, queries))
	for _, n := range []int{1, 4} {
		sl, err := shard.New(analyzer, n)
		if err != nil {
			return err
		}
		if err := fillLibrary(sl, co); err != nil {
			return err
		}
		set(fmt.Sprintf("probe.shard.search_n%d_us", n), probeLibrarySearch(sl, queries))
	}
	srv := server.New(lib, server.Options{Tokens: map[string]access.User{benchToken: benchUser}})
	serve := func(id int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(co.searchBodies[id]))
		req.Header.Set("Authorization", "Bearer "+benchToken)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}
	// Distinct queries, each sent once: every one misses the cache.
	set("probe.server.search_uncached_us", perOp(len(ids), func(i int) { serve(ids[i]) }))
	hot := hotSet(layoutSeed, len(co.entries))
	for _, id := range hot {
		serve(id)
	}
	set("probe.server.search_cached_us", perOp(2000, func(i int) { serve(hot[i%len(hot)]) }))
	srv.Close()

	// internal/store: the JSON both the request path and the journal pay.
	nStore := min(200, len(co.saved))
	results := make([]*classminer.Result, nStore)
	bodies := make([][]byte, nStore)
	for i := range results {
		if results[i], err = store.DecodeResult(co.saved[i]); err != nil {
			return err
		}
	}
	var storeErr error
	set("probe.store.encode_us", perOp(nStore, func(i int) {
		sr, err := store.EncodeResult(results[i])
		if err == nil {
			bodies[i], err = json.Marshal(store.SavedLibraryEntry{Subcluster: "medicine", Result: sr})
		}
		if err != nil {
			storeErr = err
		}
	}))
	set("probe.store.decode_us", perOp(nStore, func(i int) {
		var e store.SavedLibraryEntry
		err := json.Unmarshal(bodies[i], &e)
		if err == nil {
			_, err = store.DecodeResult(e.Result)
		}
		if err != nil {
			storeErr = err
		}
	}))
	if storeErr != nil {
		return storeErr
	}

	// internal/wal: one writer, so every synced append pays its own fsync.
	frames := make([][]byte, nStore)
	for i, b := range bodies {
		if frames[i], err = wal.EncodeRecord(wal.RecordRegister, co.names[i], b); err != nil {
			return err
		}
	}
	for _, mode := range []struct {
		metric string
		sync   wal.SyncPolicy
	}{{"probe.wal.append_sync_us", wal.SyncAlways}, {"probe.wal.append_nosync_us", wal.SyncNever}} {
		dir := filepath.Join(scratch, "probe-wal")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		eng, err := wal.Open(dir, wal.Options{Sync: mode.sync, CheckpointBytes: -1, CheckpointRecords: -1, CompactBytes: -1})
		if err != nil {
			return err
		}
		var appendErr error
		set(mode.metric, perOp(len(frames), func(i int) {
			if err := eng.Append(frames[i]); err != nil {
				appendErr = err
			}
		}))
		if err := eng.Close(); err != nil {
			return err
		}
		if appendErr != nil {
			return appendErr
		}
	}
	var rec wal.Record
	var decodeErr error
	set("probe.wal.decode_record_us", perOp(len(frames), func(i int) {
		if err := wal.DecodeRecordInto(&rec, frames[i]); err != nil {
			decodeErr = err
		}
	}))
	if decodeErr != nil {
		return decodeErr
	}

	// internal/admit: the uncontended cost every request pays.
	gate := admit.NewGate(256, 256, 100*time.Millisecond)
	ctx := context.Background()
	set("probe.admit.gate_ns", 1e3*perOp(200_000, func(int) {
		if _, err := gate.Acquire(ctx); err == nil {
			gate.Release()
		}
	}))
	limiter := admit.NewRateLimiter()
	limit := admit.Limit{Rate: 1e12, Burst: 1e12}
	set("probe.admit.ratelimit_ns", 1e3*perOp(200_000, func(int) { limiter.Allow(benchToken, limit) }))

	// internal/core: the mining stage of a corpus ingest, which no HTTP
	// workload times (they ingest already-mined results).
	frameCount := 0
	t0 := time.Now()
	for _, v := range co.mined {
		if _, err := analyzer.Analyze(v); err != nil {
			return err
		}
		frameCount += len(v.Frames)
	}
	set("probe.core.mine_frames_per_s", float64(frameCount)/time.Since(t0).Seconds())
	return nil
}

// recoverProbes replays the daemon's boot on a copy of the data dir exactly
// as the SIGKILL left it, one step at a time: the three parts should sum to
// about recover_s, the rest being process start and the first request.
func recoverProbes(out metricSet, killedDir string, shards int) error {
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	t0 := time.Now()
	analyzer, err := classminer.NewAnalyzer(classminer.Options{SkipEvents: true})
	if err != nil {
		return err
	}
	set("probe.recover.analyzer_s", time.Since(t0).Seconds())
	var lib interface {
		BuildIndex() error
		Close() error
	}
	t0 = time.Now()
	if shards > 0 {
		lib, err = shard.Recover(killedDir, shards, analyzer, classminer.DurableOptions{})
	} else {
		lib, err = classminer.Recover(killedDir, analyzer, classminer.DurableOptions{})
	}
	if err != nil {
		return fmt.Errorf("recovering %s: %w", killedDir, err)
	}
	set("probe.recover.replay_s", time.Since(t0).Seconds())
	t0 = time.Now()
	err = lib.BuildIndex()
	set("probe.recover.index_build_s", time.Since(t0).Seconds())
	if cerr := lib.Close(); err == nil {
		err = cerr
	}
	return err
}
