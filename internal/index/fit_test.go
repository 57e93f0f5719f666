package index

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sync"
	"testing"

	"classminer/internal/mat"
)

// fitDigest hashes every value a fit produces, walking the tree in its
// deterministic order: per node its name and reducer (selected dims, compsT,
// PCA mean, components and explained variance), per non-leaf node its
// children's centres, per leaf its ids and projection rows. Floats enter by
// their bits, so two fits digest equal only when not one bit of them
// differs.
func fitDigest(ix *Index) string {
	h := sha256.New()
	var walk func(n *node)
	walk = func(n *node) {
		h.Write([]byte(n.name))
		r := n.reducer
		for _, s := range r.selected {
			hashInt(h, int64(s))
		}
		hashFloats(h, r.compsT)
		hashFloats(h, r.pca.Mean)
		for _, axis := range r.pca.Components {
			hashFloats(h, axis)
		}
		hashFloats(h, r.pca.Explained)
		if len(n.children) == 0 {
			for _, id := range n.ids {
				hashInt(h, int64(id))
			}
			hashFloats(h, n.proj.Data)
			return
		}
		for _, name := range n.order {
			for _, c := range n.centers[name] {
				hashFloats(h, c)
			}
			walk(n.children[name])
		}
	}
	walk(ix.root)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashInt(h hash.Hash, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

func hashFloats(h hash.Hash, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// fitDigestCases are the fits TestFitDigestStable pins: the six-path corpus
// most index tests use, and the base-10k shape of twelve leaves in three
// subclusters with uneven leaf sizes (one of nine rows) so no row count is a
// multiple of the kernels' block size by accident. The digests were recorded
// with the fit running on one goroutine, node by node; only a change that
// means to move a fitted value may re-record them.
var fitDigestCases = []struct {
	name    string
	entries func() []*Entry
	opts    Options
	want    string
}{
	{"corpus-1200", func() []*Entry { return corpus(1200, 10) }, Options{Seed: 10},
		"4c258d171bdbeef0b254761c849865817f7b1d7d3115234028f9aa79dcb3a383"},
	{"multileaf", func() []*Entry { return multiLeafCorpus(12, 401, 9, 150, 702) }, Options{Seed: 12},
		"6e36b320ea861b0ab4e709119036e791ceeaaa90e79213e37414f4d0a3774a15"},
}

// TestBuildMatrixConcurrent holds the contract that fits over one shared row
// store may run concurrently — each reads entries and rows and writes only
// its own tree — while searches run against an older index over the same
// rows, and that a fit racing others is still the same fit. Run with -race.
func TestBuildMatrixConcurrent(t *testing.T) {
	entries := corpus(1200, 10)
	prev, err := Build(entries, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := fitDigest(prev)
	stop := make(chan struct{})
	var searchers sync.WaitGroup
	for w := 0; w < 8; w++ {
		searchers.Add(1)
		go func(w int) {
			defer searchers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := entries[(w*31+i*7)%len(entries)].Shot.Feature()
				if hits, _ := prev.Search(q, 5); len(hits) == 0 {
					t.Errorf("searcher %d: no hits", w)
					return
				}
			}
		}(w)
	}
	fits := make([]*Index, 2)
	errs := make([]error, len(fits))
	var builds sync.WaitGroup
	for b := range fits {
		builds.Add(1)
		go func(b int) {
			defer builds.Done()
			fits[b], errs[b] = build(entries, prev.rows, prev.dim, Options{Seed: 10})
		}(b)
	}
	builds.Wait()
	close(stop)
	searchers.Wait()
	for b, ix := range fits {
		if errs[b] != nil {
			t.Fatal(errs[b])
		}
		if got := fitDigest(ix); got != want {
			t.Errorf("concurrent fit %d: digest %s, want %s", b, got, want)
		}
	}
}

// TestFitDigestStable holds BuildMatrix to a pure function of its rows: at
// every worker count the fit must digest to the constants recorded above.
func TestFitDigestStable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range fitDigestCases {
		entries := c.entries()
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			ix, err := Build(entries, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := fitDigest(ix); got != c.want {
				t.Errorf("%s at GOMAXPROCS=%d: digest %s, want %s", c.name, procs, got, c.want)
			}
		}
	}
}

// BenchmarkBuildMatrix10k times one full fit of the base-10k shape — 10 000
// entries over 12 leaves in three subclusters, the fit a daemon runs at boot
// and on every coalesced rebuild. Compare worker counts with -cpu 1,2.
func BenchmarkBuildMatrix10k(b *testing.B) {
	entries := multiLeafCorpus(12, 834, 834, 834, 834, 833)
	feats := &mat.Dense{R: len(entries), C: len(entries[0].Shot.Feature())}
	for _, e := range entries {
		feats.Data = append(feats.Data, e.Shot.Feature()...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildMatrix(entries, feats, Options{Seed: 12}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}
