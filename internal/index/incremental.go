// Incremental index maintenance: copy-on-write Insert and Remove keep a
// built index searchable across registrations and deletions without the
// O(library) refit of BuildMatrix. An inserted entry is routed down the
// existing tree by its concept path to its leaf, its projected row and full
// feature appended to overlay arrays — no PCA or k-means is refit, so the
// routing and ranking spaces stay those of the last full fit. A removed
// entry is masked by a bitset. Both return a *new* Index sharing all
// unchanged structure with the old one: concurrent searches keep running
// against whichever index they started with.
//
// Single-writer contract: Insert and Remove must be called on the newest
// index of a chain only, serialised by the caller (classminer.Library holds
// its write lock). Overlay slices are extended append-style — an older
// index's readers never look past their own lengths, so sharing the grown
// backing arrays down the chain is safe under that discipline, exactly like
// the library's flat feature matrix.
//
// Accuracy: the overlay is exact for candidate generation (extras are
// unconditionally candidates at their leaf; masked entries never rank), but
// the reduced spaces drift from what a full refit would learn as the
// overlay grows. Staleness reports that fraction so callers can budget a
// coalesced rebuild (classminer.Library.RebuildNeeded).
package index

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoLeaf reports an entry whose concept path does not end at an existing
// leaf of the built tree: a brand-new concept needs reducers and centers no
// incremental step can supply, so the caller must fall back to a full
// rebuild.
var ErrNoLeaf = errors.New("index: entry path has no leaf in the built tree (full rebuild required)")

// Insert returns a new Index extended with e, routed to the leaf its
// concept path names. The cost is O(path depth + reduced dim), independent
// of how many entries the index holds. The receiving index must be the
// newest of its chain (see the package comment's single-writer contract);
// it remains valid — and unchanged — for concurrent searches.
func (ix *Index) Insert(e *Entry) (*Index, error) {
	if e == nil || e.Shot == nil {
		return nil, fmt.Errorf("index: nil entry")
	}
	if len(e.Path) == 0 {
		return nil, fmt.Errorf("index: entry has empty path")
	}
	d := len(e.Shot.Color) + len(e.Shot.Texture)
	if d != ix.feats.C {
		return nil, fmt.Errorf("index: entry has %d feature dims, index has %d", d, ix.feats.C)
	}
	if len(ix.all) >= math.MaxInt32 {
		return nil, fmt.Errorf("index: %d entries exceed the int32 ID space", len(ix.all))
	}
	// Verify the path ends at an existing leaf before cloning anything.
	cur := ix.root
	for _, name := range e.Path {
		next, ok := cur.children[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoLeaf, name)
		}
		cur = next
	}
	if len(cur.children) != 0 {
		return nil, fmt.Errorf("%w: path ends at non-leaf %q", ErrNoLeaf, cur.name)
	}

	id := int32(len(ix.all))
	nix := *ix // shallow copy: shares root, feats, scratch pool, options
	nix.all = append(ix.all, e)
	nix.extraFeats = append(ix.extraFeats, e.Shot.Color...)
	nix.extraFeats = append(nix.extraFeats, e.Shot.Texture...)
	nix.inserted = ix.inserted + 1
	nix.root = cloneSpine(ix.root, e.Path, func(leaf *node) *node {
		nl := *leaf // shares ids, proj, cell table, reducer with the old leaf
		dim := leaf.reducer.Dim()
		full := ix.featRowOf(&nix, id)
		row := make([]float64, dim)
		leaf.reducer.ProjectInto(row, full)
		nl.extraIDs = append(leaf.extraIDs, id)
		nl.extraProj = append(leaf.extraProj, row...)
		return &nl
	})
	return &nix, nil
}

// featRowOf reads the freshly appended full feature row from the new
// index's overlay (contiguous, unlike the entry's split Color/Texture).
func (ix *Index) featRowOf(nix *Index, id int32) []float64 {
	r := int(id) - nix.baseRows
	return nix.extraFeats[r*nix.feats.C : (r+1)*nix.feats.C]
}

// Remove returns a new Index with every entry of the named video masked,
// along with how many entries the mask newly covers (0 means the video has
// no live entries and the receiver is returned unchanged). Masked entries
// are invisible to every search against the new index; searches against
// older indexes of the chain still see them, exactly like any other
// copy-on-write snapshot.
func (ix *Index) Remove(videoName string) (*Index, int) {
	words := (len(ix.all) + 63) / 64
	var mask []uint64
	n := 0
	for i, e := range ix.all {
		if e.VideoName != videoName {
			continue
		}
		w, b := i>>6, uint(i&63)
		if int(w) < len(ix.removed) && ix.removed[w]&(1<<b) != 0 {
			continue // already masked (an earlier Remove of a replaced video)
		}
		if mask == nil {
			mask = make([]uint64, words)
			copy(mask, ix.removed)
		}
		mask[w] |= 1 << b
		n++
	}
	if n == 0 {
		return ix, 0
	}
	nix := *ix
	nix.removed = mask
	nix.removedCount = ix.removedCount + n
	return &nix, n
}

// Staleness is the fraction of the index that is incremental overlay:
// (inserted + removed) relative to the size of the last full fit. It grows
// monotonically between fits; callers compare it against their rebuild
// budget to decide when the approximation has drifted enough to warrant a
// refit.
func (ix *Index) Staleness() float64 {
	churn := ix.inserted + ix.removedCount
	if churn == 0 {
		return 0
	}
	if ix.baseRows == 0 {
		return math.Inf(1)
	}
	return float64(churn) / float64(ix.baseRows)
}

// cloneSpine clones the nodes along path from root to a leaf, leaving every
// off-path subtree shared with the original, and applies mutate to the
// (copied) leaf. Each cloned interior node gets a fresh children map so the
// original tree is never written.
func cloneSpine(root *node, path []string, mutate func(leaf *node) *node) *node {
	if len(path) == 0 {
		return mutate(root)
	}
	nr := *root
	nr.children = make(map[string]*node, len(root.children))
	for k, v := range root.children {
		nr.children[k] = v
	}
	nr.children[path[0]] = cloneSpine(root.children[path[0]], path[1:], mutate)
	return &nr
}
