package classminer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"classminer/internal/wal"
)

// corpusVideo is one (name, seed, shots) fixture of testCorpus.
type corpusVideo struct {
	name  string
	seed  int64
	shots int
}

// testCorpus is a deterministic set of fixtures whose names sort in corpus
// order.
func testCorpus(seed int64, videos int) []corpusVideo {
	out := make([]corpusVideo, 0, videos)
	for i := 0; i < videos; i++ {
		out = append(out, corpusVideo{
			name:  fmt.Sprintf("case-%d-%02d", seed, i),
			seed:  seed*1000 + int64(i),
			shots: 2 + i%3,
		})
	}
	return out
}

func totalShots(c []corpusVideo) int {
	n := 0
	for _, v := range c {
		n += v.shots
	}
	return n
}

// buildCorpusLibrary registers the corpus on an in-memory library and fits
// its index.
func buildCorpusLibrary(t testing.TB, corpus []corpusVideo) *Library {
	t.Helper()
	l := NewLibrary(nil)
	for _, v := range corpus {
		if err := l.AddResultCtx(context.Background(), tinyResult(t, v.name, v.seed, v.shots), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.BuildIndexCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestConcurrentMutateWhileSearch hammers one library from searchers,
// a mutator that registers and deletes, and an index rebuilder at once; run
// under -race it is the search path's data-race gate. A pinned video keeps
// the library non-empty so searches never hit the empty-library error.
func TestConcurrentMutateWhileSearch(t *testing.T) {
	ctx := context.Background()
	l := buildCorpusLibrary(t, testCorpus(3, 1))

	const iters = 120
	queries := fixedQueries(4, 12, 77)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(w+i)%len(queries)]
				if _, _, err := l.SearchIntoCtx(ctx, nil, admin, q, 5); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("churn-%03d", i%20)
			switch {
			case i%5 == 4:
				// Deletes may race another delete of the same name.
				_ = l.DeleteVideoAsCtx(ctx, admin, name)
			default:
				err := l.AddResultCtx(ctx, tinyResult(t, name, int64(i), 2), "medicine")
				if err != nil && !errors.Is(err, ErrDuplicateVideo) {
					t.Errorf("add %s: %v", name, err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			if err := l.BuildIndexCtx(ctx); err != nil {
				t.Errorf("rebuild: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if err := l.BuildIndexCtx(ctx); err != nil {
		t.Fatal(err)
	}
	hits, _, err := l.SearchIntoCtx(ctx, nil, admin, queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits after churn")
	}
}

// TestSearchBatchMatchesSingleQueries: queries answered concurrently, one
// goroutine each — as the batch endpoint answers its misses — must agree
// with the one-at-a-time path query by query.
func TestSearchBatchMatchesSingleQueries(t *testing.T) {
	corpus := testCorpus(41, 11)
	l := buildCorpusLibrary(t, corpus)
	k := totalShots(corpus) + 1
	queries := fixedQueries(5, 12, 41)

	batch := make([][]SearchHit, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q []float64) {
			defer wg.Done()
			batch[i], _, errs[i] = l.SearchIntoCtx(context.Background(), nil, admin, q, k)
		}(i, q)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	mustSameHits(t, batch, searchAll(t, l, queries, k))
}

// TestCheckpointWritesNameOrder: a checkpoint streams the videos as one
// name-ordered run of register records, whatever order they were registered
// in, under a header that counts what follows.
func TestCheckpointWritesNameOrder(t *testing.T) {
	corpus := testCorpus(31, 14)
	l, err := Recover(t.TempDir(), nil, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	for i := len(corpus) - 1; i >= 0; i-- { // registered against the name order
		v := corpus[i]
		if err := l.AddResultCtx(context.Background(), tinyResult(t, v.name, v.seed, v.shots), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.DeleteVideoAsCtx(context.Background(), admin, corpus[3].name); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := l.Engine().SnapshotPath()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var h wal.SnapshotHeader
	var keys []string
	err = wal.ReadSnapshot(bytes.NewReader(file), func(hdr wal.SnapshotHeader) error { h = hdr; return nil },
		func(frame []byte) error {
			rec, err := wal.DecodeRecord(frame)
			keys = append(keys, rec.Key)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := (wal.SnapshotHeader{Videos: len(corpus) - 1, Rows: totalShots(corpus) - corpus[3].shots, Dim: 12}); h != want {
		t.Fatalf("snapshot header %+v, want %+v", h, want)
	}
	var want []string
	for i, v := range corpus {
		if i != 3 {
			want = append(want, v.name)
		}
	}
	if !slices.Equal(keys, want) {
		t.Fatalf("snapshot records %v, want %v", keys, want)
	}
}
