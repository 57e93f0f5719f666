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

	"classminer/internal/featrow"
	"classminer/internal/mat"
	"classminer/internal/vidmodel"
)

// fitDigest hashes every value a fit produces, walking the tree in its
// deterministic order: per node its name, and per leaf its reducer (selected
// dims, compsT, projected mean, PCA mean and components), its ids and
// projection rows in k-d order, its k-d nodes and their boxes. Floats enter
// by their bits, so two fits digest equal only when not one bit of them
// differs.
func fitDigest(ix *Index) string {
	h := sha256.New()
	var walk func(n *node)
	walk = func(n *node) {
		h.Write([]byte(n.name))
		for _, name := range n.order {
			walk(n.children[name])
		}
		if len(n.children) != 0 {
			return
		}
		r := n.reducer
		for _, s := range r.selected {
			hashInt(h, int64(s))
		}
		hashFloats(h, r.compsT)
		hashFloats(h, r.off)
		hashFloats(h, r.pca.Mean)
		for _, axis := range r.pca.Components {
			hashFloats(h, axis)
		}
		for _, id := range n.ids {
			hashInt(h, int64(id))
		}
		hashFloats(h, n.proj.Data)
		for _, nd := range n.kd {
			hashInt(h, int64(nd.lo)<<32|int64(nd.hi))
			hashInt(h, int64(nd.right))
		}
		hashFloats(h, n.boxes)
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
// multiple of the kernels' block size by accident, and a leaf of 702 rows
// splits four levels deep. The digests were recorded with the fit running
// on one goroutine, leaf by leaf; only a change that means to move a fitted
// value may re-record them.
var fitDigestCases = []struct {
	name    string
	entries func() []*Entry
	want    string
}{
	{"corpus-1200", func() []*Entry { return corpus(1200, 10) },
		"a417454789910363ee70f1cdb542f427af55b46d39790df730ff2771b2cfb0f0"},
	{"multileaf", func() []*Entry { return multiLeafCorpus(12, 401, 9, 150, 702) },
		"0541d8a566b11182414c1983db365fb37dd86a34d389f48da14e2bac4db25cf8"},
}

// TestBuildMatrixConcurrent holds the contract that fits over one shared row
// store may run concurrently — each reads entries and rows and writes only
// its own tree — while searches run against an older index over the same
// rows, and that a fit racing others is still the same fit. Run with -race.
func TestBuildMatrixConcurrent(t *testing.T) {
	entries := corpus(1200, 10)
	prev, err := Build(entries, Options{})
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
				if hits, _ := prev.Search(nil, q, 5, nil); len(hits) == 0 {
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
			fits[b], errs[b] = build(entries, prev.rows, prev.dim, Options{})
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
			ix, err := Build(entries, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := fitDigest(ix); got != c.want {
				t.Errorf("%s at GOMAXPROCS=%d: digest %s, want %s", c.name, procs, got, c.want)
			}
		}
	}
}

// TestReducerComponentsArePCA holds every leaf's reducer to a PCA of its
// rows: on both fitDigestCases corpora, each kept component v of a
// leaf is an eigenvector of the covariance of the leaf's selected
// coordinates, taken densely here (mat.Covariance), to a residual
// ‖C·v − λ·v‖ ≤ 1e-9·λ with λ = vᵀ·C·v (1e-9·1e-6·λ₀ for a component past
// the leaf's rank, λ₀ the first's), and the components are orthonormal to
// 1e-12. A fit whose eigensolver stops on an absolute tolerance fails it
// on covariances this small. Two degenerate leaves join the six-path
// corpus: one of a single row and one of identical rows, whose covariance
// is zero up to rounding; their components need only be orthonormal and
// their residual at most 1e-12.
func TestReducerComponentsArePCA(t *testing.T) {
	degenerate := func() []*Entry {
		entries := corpus(600, 10)
		twin := entries[0].Shot
		for i, leaf := range []string{"medicine/solo", "medicine/twins", "medicine/twins", "medicine/twins"} {
			entries = append(entries, &Entry{
				VideoName: fmt.Sprintf("degenerate-%d", i),
				Shot:      &vidmodel.Shot{Index: i, Color: twin.Color, Texture: twin.Texture},
				Path:      []string{"medical education", "medicine", leaf},
			})
		}
		return entries
	}
	cases := append(fitDigestCases[:len(fitDigestCases):len(fitDigestCases)], struct {
		name    string
		entries func() []*Entry
		want    string
	}{"degenerate", degenerate, ""})
	for _, c := range cases {
		ix, err := Build(c.entries(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, fn := range appendLeaves(nil, ix.root) {
			r := fn.reducer
			x := make([][]float64, len(fn.ids))
			for i, id := range fn.ids {
				full := ix.rows[id].AppendTo(nil)
				for _, j := range r.selected {
					x[i] = append(x[i], full[j])
				}
			}
			cov := mat.Covariance(x)
			comps := r.pca.Components
			var lambda0 float64
			for a, v := range comps {
				for b := a; b < len(comps); b++ {
					var dot float64
					for j := range v {
						dot += v[j] * comps[b][j]
					}
					want := 0.0
					if a == b {
						want = 1
					}
					if math.Abs(dot-want) > 1e-12 {
						t.Fatalf("%s node %q: components %d·%d = %v, want %v", c.name, fn.name, a, b, dot, want)
					}
				}
				cv := make([]float64, len(v))
				var lambda float64
				for i, row := range cov {
					for j, w := range row {
						cv[i] += w * v[j]
					}
					lambda += v[i] * cv[i]
				}
				var res float64
				for i := range cv {
					res += (cv[i] - lambda*v[i]) * (cv[i] - lambda*v[i])
				}
				res = math.Sqrt(res)
				if a == 0 {
					lambda0 = lambda
				}
				// A component past the node's rank (λ below 1e-6 of the
				// first) spans the null space: its residual is held to
				// the first's scale instead.
				tol := 1e-9 * max(lambda, 1e-6*lambda0)
				if len(fn.ids) == 1 || fn.name == "medicine/twins" {
					tol = 1e-12
				}
				if !(res <= tol) {
					t.Errorf("%s node %q (%d rows): component %d has λ %.3g, residual %.3g > %.3g",
						c.name, fn.name, len(fn.ids), a, lambda, res, tol)
				}
			}
		}
	}
}

// BenchmarkBuild10k times one full fit of the base-10k shape — 10 000
// entries over 12 leaves in three subclusters, the fit a daemon runs at boot
// and on every coalesced rebuild. As in the daemon, every shot's row is
// packed before the fit, once, outside the timer. Compare worker counts
// with -cpu 1,2.
func BenchmarkBuild10k(b *testing.B) {
	entries := multiLeafCorpus(12, 834, 834, 834, 834, 833)
	rows := make([]featrow.Row, len(entries))
	featrow.Pack(rows, func(i int) (color, texture []float64) {
		return entries[i].Shot.Color, entries[i].Shot.Texture
	})
	for i, e := range entries {
		e.Shot.Row = rows[i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(entries, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}
