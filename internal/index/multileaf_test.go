package index

import (
	"fmt"
	"math/rand"
	"testing"

	"classminer/internal/feature"
	"classminer/internal/vidmodel"
)

// multiLeafCorpus builds a corpus shaped like the HTTP benchmark's
// base-10k: three subclusters of four scene leaves under one cluster, so a
// Beam-2 search visits 4 of the 12 leaves, and sparse 266-dim rows. A leaf
// has one pattern of 16 colour bins and 2 texture dims; its few prototypes
// reweigh that pattern, and every shot is a prototype with each dimension
// scaled by its own factor — related shots, as a mined scene leaf holds.
// Leaf i gets rows[i] shots, the leaves past len(rows) as many as the last
// one named.
func multiLeafCorpus(seed int64, rows ...int) []*Entry {
	rng := rand.New(rand.NewSource(seed))
	const protosPerLeaf = 12
	jitter := func(src []float64, spread float64) []float64 {
		out := make([]float64, len(src))
		for i, x := range src {
			out[i] = x * (1 + spread*rng.NormFloat64())
		}
		return out
	}
	var out []*Entry
	for s, sub := range []string{"medicine", "nursing", "dentistry"} {
		for v, scene := range []string{"presentation", "dialog", "clinical operation", "other"} {
			pattern := make([]float64, feature.ColorBins+feature.TextureDims)
			for j := 0; j < 16; j++ {
				// Half the mass sits in bins the subcluster shares, half
				// anywhere: sibling leaves overlap.
				bin := rng.Intn(feature.ColorBins)
				if j < 8 {
					bin = (s*80 + v*12 + rng.Intn(40)) % feature.ColorBins
				}
				pattern[bin] += 0.02 + 0.1*rng.Float64()
			}
			pattern[feature.ColorBins+rng.Intn(feature.TextureDims)] = 0.3 + 0.5*rng.Float64()
			pattern[feature.ColorBins+rng.Intn(feature.TextureDims)] += 0.2
			var protos [][]float64
			for p := 0; p < protosPerLeaf; p++ {
				protos = append(protos, jitter(pattern, 0.5))
			}
			for i := 0; i < rows[min(s*4+v, len(rows)-1)]; i++ {
				f := jitter(protos[rng.Intn(len(protos))], 0.3)
				out = append(out, &Entry{
					VideoName: fmt.Sprintf("video-%02d-%03d", s*4+v, i/25),
					Shot: &vidmodel.Shot{
						Index: i % 25,
						Color: f[:feature.ColorBins:feature.ColorBins], Texture: f[feature.ColorBins:],
					},
					Path: []string{"medical education", sub, sub + "/" + scene},
				})
			}
		}
	}
	return out
}

// TestSearchForEveryRowVisitsEveryLeaf pins what a search asking for at
// least every live row answers: all of them, in distance order, whatever the
// beam — before and after a Remove — while one row fewer keeps to the beam.
func TestSearchForEveryRowVisitsEveryLeaf(t *testing.T) {
	entries := multiLeafCorpus(3, 20)
	ix, err := Build(entries, Options{Seed: 3, Beam: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := entries[0].Shot.Feature()
	if _, st := ix.Search(q, ix.Size()-1); st.Candidates >= ix.Size() {
		t.Fatalf("k = %d bounded %d rows: a beam-1 search visited every leaf", ix.Size()-1, st.Candidates)
	}
	for _, step := range []string{"built", "after a remove"} {
		if step != "built" {
			var n int
			if ix, n = ix.Remove(entries[len(entries)/2].VideoName); n == 0 {
				t.Fatal("remove matched no rows")
			}
		}
		for _, k := range []int{ix.Size(), ix.Size() + 5} {
			res, st := ix.Search(q, k)
			if len(res) != ix.Size() || st.Candidates != ix.Size() || st.Closed != 1 {
				t.Fatalf("%s k=%d: %d hits, %d rows bounded, closed %d; want all %d live rows",
					step, k, len(res), st.Candidates, st.Closed, ix.Size())
			}
			seen := map[*Entry]bool{}
			for i, r := range res {
				if seen[r.Entry] || (i > 0 && res[i-1].Dist > r.Dist) {
					t.Fatalf("%s k=%d: hit %d repeated or out of order", step, k, i)
				}
				seen[r.Entry] = true
			}
		}
	}
}

// BenchmarkSearchMultiLeaf is the search the daemon actually serves: 12
// leaves of ~800 rows, a Beam-2 query reaching four of them, a different
// query every iteration. (BenchmarkHierarchicalSearch replays one query
// over 1 200 entries on 6 paths and never saw a four-leaf beam.)
func BenchmarkSearchMultiLeaf(b *testing.B) {
	entries := multiLeafCorpus(12, 800)
	ix, err := Build(entries, Options{Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, 512)
	for i := range queries {
		queries[i] = entries[(i*7919)%len(entries)].Shot.Feature()
	}
	dst := make([]Result, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = ix.SearchInto(dst, queries[i%len(queries)], 10)
	}
}
