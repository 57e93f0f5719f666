package index

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// goldenHit is one recorded search hit: the entry's position in the corpus
// slice and its reported distance.
type goldenHit struct {
	Entry int     `json:"entry"`
	Dist  float64 `json:"dist"`
}

// goldenCase is the recorded answer for one query.
type goldenCase struct {
	Hits []goldenHit `json:"hits"`
}

const goldenPath = "testdata/search_golden.json"

// goldenQueries builds a deterministic query set: perturbed corpus features.
func goldenQueries(entries []*Entry) [][]float64 {
	rng := rand.New(rand.NewSource(77))
	var out [][]float64
	for i := 0; i < 25; i++ {
		q := append([]float64(nil), entries[(i*13)%len(entries)].Shot.Feature()...)
		for j := 0; j < 8; j++ {
			q[rng.Intn(len(q))] += rng.Float64() * 0.01
		}
		out = append(out, q)
	}
	return out
}

// TestSearchGolden pins Search results against a recording: the hot path
// must return the same entries at the same (exact, full-space) distances,
// with reordering permitted only within groups of tied distances. A change
// that means to move results regenerates it with GOLDEN_UPDATE=1 go test and
// answers to TestSearchEqualsFlat for what it did to quality.
func TestSearchGolden(t *testing.T) {
	entries := corpus(300, 2)
	ix, err := Build(entries, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Entry]int{}
	for i, e := range entries {
		pos[e] = i
	}
	var got []goldenCase
	for _, q := range goldenQueries(entries) {
		res, _ := ix.Search(nil, q, 10, nil)
		var c goldenCase
		for _, r := range res {
			c.Hits = append(c.Hits, goldenHit{Entry: pos[r.Entry], Dist: r.Dist})
		}
		got = append(got, c)
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d cases", len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cases = %d, want %d", len(got), len(want))
	}
	for ci := range want {
		compareUpToTies(t, ci, got[ci].Hits, want[ci].Hits)
	}
}

// compareUpToTies requires identical distance sequences and identical entry
// sets within each run of (numerically) tied distances. The final tie group
// is exempt from the set comparison: when more entries tie at the k-th
// distance than fit, either implementation may keep any of them, so only
// the distances (already compared element-wise) must agree there.
func compareUpToTies(t *testing.T, ci int, got, want []goldenHit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("case %d: hits = %d, want %d", ci, len(got), len(want))
	}
	const eps = 1e-9
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > eps {
			t.Fatalf("case %d hit %d: dist = %.12f, want %.12f", ci, i, got[i].Dist, want[i].Dist)
		}
	}
	i := 0
	for i < len(want) {
		j := i + 1
		for j < len(want) && math.Abs(want[j].Dist-want[i].Dist) <= eps {
			j++
		}
		if j == len(want) {
			break // possibly-truncated boundary tie group
		}
		ws := map[int]bool{}
		gs := map[int]bool{}
		for k := i; k < j; k++ {
			ws[want[k].Entry] = true
			gs[got[k].Entry] = true
		}
		for e := range ws {
			if !gs[e] {
				t.Fatalf("case %d tie group [%d,%d): entry %d missing (got %v)", ci, i, j, e, got[i:j])
			}
		}
		i = j
	}
}

// TestSearchEqualsFlat is the quality half of the golden file: on corpora
// shaped like the HTTP benchmark's — multiLeafCorpus(12, 800), 9 600 rows,
// and ten times that — every query-by-example answer is FlatSearch's over
// the same entries: the same hits in the same order at the same Dist bits.
// At 96 000 rows it runs 60 queries, each a flat scan of the reference, so
// that the tier-1 suite stays fast; under the race detector, which CI runs
// it under to watch the parallel fit, it runs a fifth of the queries.
func TestSearchEqualsFlat(t *testing.T) {
	big, bigIx := multiLeaf96k()
	small := multiLeafCorpus(12, 800)
	smallIx, err := Build(small, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		entries []*Entry
		ix      *Index
		queries int
	}{{small, smallIx, 500}, {big, bigIx, 60}} {
		if raceEnabled {
			c.queries /= 5
		}
		var got []Result
		for i := 0; i < c.queries; i++ {
			q := c.entries[(i*7919)%len(c.entries)].Shot.Feature()
			want, _ := FlatSearch(c.entries, q, 10)
			got, _ = c.ix.Search(got, q, 10, nil)
			requireSameHits(t, fmt.Sprintf("%d rows, query %d", len(c.entries), i), got, want)
		}
	}
}
