package index

import (
	"encoding/json"
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

// goldenQueries builds a deterministic query set: perturbed corpus features
// plus a few far-off vectors that exercise ring expansion.
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
// answers to TestRecallFloor for what it did to quality.
func TestSearchGolden(t *testing.T) {
	entries := corpus(300, 2)
	ix, err := Build(entries, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Entry]int{}
	for i, e := range entries {
		pos[e] = i
	}
	var got []goldenCase
	for _, q := range goldenQueries(entries) {
		res, _ := ix.Search(q, 10)
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

// oldRankRecallAt10 is what the previous leaf stage — every candidate
// ranked in the primary leaf's reduced space, sibling-leaf candidates
// projected into it on demand — found of the exact top ten on
// multiLeafCorpus(12, 800) over the 500 queries below: 3610 of 5000.
const oldRankRecallAt10 = 0.7220

// TestRecallFloor is the quality half of the golden file: on a corpus shaped
// like the HTTP benchmark's, the share of FlatSearch's exact top ten that
// the index returns must not fall below what the old rank achieved.
func TestRecallFloor(t *testing.T) {
	entries := multiLeafCorpus(12, 800)
	ix, err := Build(entries, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	found, exact := 0, 0
	var hier []Result
	for i := 0; i < 500; i++ {
		q := entries[(i*7919)%len(entries)].Shot.Feature()
		flat, _ := FlatSearch(entries, q, 10)
		hier, _ = ix.SearchInto(hier, q, 10)
		for _, f := range flat {
			exact++
			for _, h := range hier {
				if h.Entry == f.Entry {
					found++
					break
				}
			}
		}
	}
	recall := float64(found) / float64(exact)
	t.Logf("recall@10 = %d/%d = %.4f (old rank: %.4f)", found, exact, recall, oldRankRecallAt10)
	if recall < oldRankRecallAt10 {
		t.Fatalf("recall@10 %.4f fell below the old rank's %.4f", recall, oldRankRecallAt10)
	}
}
