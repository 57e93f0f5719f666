package index

import (
	"fmt"
	"math/rand"
	"testing"

	"classminer/internal/feature"
	"classminer/internal/mat"
	"classminer/internal/vidmodel"
)

// multiLeafCorpus builds a corpus shaped like the HTTP benchmark's
// base-10k: three subclusters of four scene leaves under one cluster, so a
// Beam-2 search visits 4 of the 12 leaves, and sparse 266-dim rows. A leaf
// has one pattern of 16 colour bins and 2 texture dims; its few prototypes
// reweigh that pattern, and every shot is a prototype with each dimension
// scaled by its own factor — related shots, as a mined scene leaf holds,
// spread over some hundreds of hash cells per 800 rows. Leaf i gets rows[i]
// shots, the leaves past len(rows) as many as the last one named.
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

// gatherLeaf builds a bare leaf of the given number of rows, quantised as
// fitLeaf quantises one: four hashed dims of unit spread cut into cells of
// half a standard deviation.
func gatherLeaf(rows int, rng *rand.Rand) *node {
	n := &node{proj: mat.NewDense(rows, maxHashDims), cell: []float64{0.5, 0.5, 0.5, 0.5}}
	for i := range n.proj.Data {
		n.proj.Data[i] = rng.NormFloat64()
	}
	n.buildCells()
	return n
}

// BenchmarkLeafGather times the two ways a leaf finds the occupied cells
// within Chebyshev radius 2 of a query — scanCells' single pass over the
// table against probeShell's binary-search probes, shell by shell until ten
// rows are in hand, as leafCandidates runs them — at three table sizes,
// with queries drawn from the leaf's own rows as query-by-example draws
// them. It is where scanCellsPerProbe comes from.
func BenchmarkLeafGather(b *testing.B) {
	for _, rows := range []int{700, 20_000, 200_000} {
		rng := rand.New(rand.NewSource(int64(rows)))
		leaf := gatherLeaf(rows, rng)
		bases := make([][]int, 256)
		for i := range bases {
			key := leaf.hashKey(leaf.proj.Row(rng.Intn(leaf.proj.R)))
			bases[i] = []int{int(key[0]), int(key[1]), int(key[2]), int(key[3])}
		}
		var ring [3][]int32
		rows := func(r int) (n int) {
			for _, ci := range ring[r] {
				n += int(leaf.cellStart[ci+1] - leaf.cellStart[ci])
			}
			return n
		}
		name := fmt.Sprintf("cells=%d", len(leaf.cellKeys))
		b.Run(name+"/scan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := range ring {
					ring[r] = ring[r][:0]
				}
				leaf.scanCells(bases[i%len(bases)], &ring)
			}
		})
		b.Run(name+"/probe", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				found := 0
				for r := 0; r <= 2 && found < 10; r++ {
					ring[r] = leaf.probeShell(ring[r][:0], bases[i%len(bases)], r)
					found += rows(r)
				}
			}
		})
	}
}
