// Incremental index maintenance: copy-on-write Insert/InsertAll and
// Remove/RemoveIDs keep a built index searchable across registrations and
// deletions without the O(library) refit of a build. An inserted entry
// goes to the leaf its concept path names: its projected row (its dropped
// norm included) is appended to the leaf's overlay, the overlay's box
// widens to hold it, the index's leaf list takes the cloned leaf, and its
// packed feature (its shot's Row, or its shot's halves packed when it has
// none) is appended to the row table — no reducer is refit and no k-d box
// of the fit moves, so each leaf's subspace stays that of the last full
// fit. A removed entry is masked by a paged bitset: a removal copies the
// page table and the pages it touches, never the whole mask, so masking a
// video costs what the video holds however large the index is. All four
// return a *new* Index sharing all unchanged structure with the old one:
// concurrent searches keep running against whichever index they started
// with.
//
// Entry IDs are positions: the entries handed to a build are 0..n-1 and
// every inserted entry takes the next one. A caller that appends to its own
// row store in the same order (classminer.Library) can therefore address
// index entries by its own row numbers — RemoveIDs — and needs the by-name
// scan of Remove only once its rows have moved under a fit (it compacted).
//
// Single-writer contract: the mutators must be called on the newest index of
// a chain only, serialised by the caller (classminer.Library holds its write
// lock). The entry and row tables and the overlay slices are extended
// append-style — an older index's readers never look past their own
// lengths, so sharing the grown backing arrays down the chain is safe under
// that discipline, exactly like the library's own entry slice.
//
// Accuracy: a search stays exact however large the overlay grows — the
// overlay box bounds its rows as a k-d box bounds a fit's, a removed row's
// box still bounds the rows left in it, and masked entries never rank. What
// drifts is cost: the overlay is one box, scanned whole once the search
// opens it, and the reduced spaces drift from what a full refit would
// learn. Staleness reports the overlay's fraction so callers can budget a
// coalesced rebuild (classminer.Library.RebuildNeeded).
package index

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrNoLeaf reports an entry whose concept path does not end at an existing
// leaf of the built tree: a brand-new concept needs a reducer no
// incremental step can supply, so the caller must fall back to a full
// rebuild.
var ErrNoLeaf = errors.New("index: entry path has no leaf in the built tree (full rebuild required)")

// leafOf validates e against the index and returns the leaf its concept path
// names. Nothing is cloned or written.
func (ix *Index) leafOf(e *Entry) (*node, error) {
	if e == nil || e.Shot == nil {
		return nil, fmt.Errorf("index: nil entry")
	}
	if len(e.Path) == 0 {
		return nil, fmt.Errorf("index: entry has empty path")
	}
	if d := e.Shot.FeatureLen(); d != ix.dim {
		return nil, fmt.Errorf("index: entry has %d feature dims, index has %d", d, ix.dim)
	}
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
	return cur, nil
}

// Insert returns a new Index extended with e, placed in the leaf its
// concept path names. The cost is O(path depth + leaves + reduced dim),
// independent of how many entries the index holds. The receiving index
// must be the newest of its chain (see the package comment's single-writer
// contract); it remains valid — and unchanged — for concurrent searches.
func (ix *Index) Insert(e *Entry) (*Index, error) {
	// Verify the path ends at an existing leaf before cloning anything.
	if _, err := ix.leafOf(e); err != nil {
		return nil, err
	}
	if len(ix.all) >= math.MaxInt32 {
		return nil, fmt.Errorf("index: %d entries exceed the int32 ID space", len(ix.all))
	}
	id := int32(len(ix.all))
	nix := *ix // shallow copy: shares root, rows, scratch pool, options
	nix.all = append(ix.all, e)
	nix.rows = appendRows(ix.rows, []*Entry{e})
	nix.inserted = ix.inserted + 1
	nix.leaves = slices.Clone(ix.leaves)
	nix.root = cloneSpine(ix.root, e.Path, func(leaf *node) *node {
		nl := *leaf // shares ids, proj, boxes, reducer with the old leaf
		dim := leaf.reducer.Dim()
		at := len(leaf.extraProj)
		nl.extraIDs = append(grow(leaf.extraIDs, 1), id)
		nl.extraProj = grow(leaf.extraProj, dim)[:at+dim]
		leaf.reducer.ProjectRow(nl.extraProj[at:], nix.rows[id], make([]int32, 0, nix.dim))
		nl.extraBox = widen(leaf.extraBox, nl.extraProj[at:], dim)
		nix.leaves[slices.Index(nix.leaves, leaf)] = &nl
		return &nl
	})
	return &nix, nil
}

// InsertAll is Insert for a run of entries — one video's shots, or the
// registrations a refit has to catch up on: entries[i] takes ID Size-at-call
// + i, the index struct is copied once, and the spine down to each distinct
// leaf is cloned once however many of the entries land there. It is all or
// nothing: when any entry cannot be routed (ErrNoLeaf, wrong dimensionality)
// the receiver is returned to the caller's care unchanged and no entry is
// inserted.
func (ix *Index) InsertAll(entries []*Entry) (*Index, error) {
	if len(entries) == 0 {
		return ix, nil
	}
	if len(ix.all)+len(entries) > math.MaxInt32 {
		return nil, fmt.Errorf("index: %d entries exceed the int32 ID space", len(ix.all)+len(entries))
	}
	// Group the entries by leaf, leaves in first-appearance order, before
	// cloning anything.
	type group struct {
		path []string
		at   []int // positions in entries, ascending
	}
	var groups []group
	slot := map[*node]int{}
	for i, e := range entries {
		leaf, err := ix.leafOf(e)
		if err != nil {
			return nil, err
		}
		g, ok := slot[leaf]
		if !ok {
			g = len(groups)
			slot[leaf] = g
			groups = append(groups, group{path: e.Path})
		}
		groups[g].at = append(groups[g].at, i)
	}
	base := len(ix.all)
	nix := *ix
	nix.all = append(ix.all, entries...)
	nix.rows = appendRows(ix.rows, entries)
	nix.inserted = ix.inserted + len(entries)
	idx := make([]int32, 0, nix.dim)
	nix.leaves = slices.Clone(ix.leaves)
	for _, g := range groups {
		nix.root = cloneSpine(nix.root, g.path, func(leaf *node) *node {
			nl := *leaf
			dim := leaf.reducer.Dim()
			at := len(leaf.extraProj)
			nl.extraIDs = grow(leaf.extraIDs, len(g.at))
			nl.extraProj = grow(leaf.extraProj, len(g.at)*dim)[:at+len(g.at)*dim]
			for j, i := range g.at {
				id := int32(base + i)
				leaf.reducer.ProjectRow(nl.extraProj[at+j*dim:at+(j+1)*dim], nix.rows[id], idx)
				nl.extraIDs = append(nl.extraIDs, id)
			}
			nl.extraBox = widen(leaf.extraBox, nl.extraProj[at:], dim)
			nix.leaves[slices.Index(nix.leaves, leaf)] = &nl
			return &nl
		})
	}
	return &nix, nil
}

// widen returns a copy of box (dim minima, then dim maxima; nil while the
// overlay is empty) widened to hold rows, reduced features dim wide each.
// The copy is 2·dim floats, so an insert stays O(dim), and the older
// index's box is never written.
func widen(box, rows []float64, dim int) []float64 {
	if box == nil {
		box = append(append(make([]float64, 0, 2*dim), rows[:dim]...), rows[:dim]...)
		rows = rows[dim:]
	} else {
		box = slices.Clone(box)
	}
	mins, maxs := box[:dim], box[dim:]
	for ; len(rows) > 0; rows = rows[dim:] {
		for c, x := range rows[:dim] {
			mins[c] = min(mins[c], x)
			maxs[c] = max(maxs[c], x)
		}
	}
	return box
}

// grow is slices.Grow doubling the capacity it adds: an overlay slice grows
// by one video at a time, and append's own growth, a quarter at these
// sizes, would copy each row four times over on the way.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make(S, 0, max(2*cap(s), len(s)+n)), s...)
}

// The removal mask is paged so that a removal is copy-on-write at the price
// of the pages it touches: page p covers entry IDs [p<<maskPageShift,
// (p+1)<<maskPageShift). A page table never holds nil — pages nothing was
// removed from all point at noneMasked, which is never written — so the
// per-row test in appendBounds needs no nil check.
const (
	maskPageShift = 12
	maskPageWords = 1 << (maskPageShift - 6)
)

type maskPage [maskPageWords]uint64

var noneMasked maskPage

// masked reports whether the removal mask covers id. IDs past the table —
// entries inserted since the last removal — are never masked.
func masked(removed []*maskPage, id int32) bool {
	p := int(id >> maskPageShift)
	return p < len(removed) && removed[p][id>>6&(maskPageWords-1)]>>uint(id&63)&1 != 0
}

// Remove returns a new Index with every entry of the named video masked,
// along with how many entries the mask newly covers (0 means the video has
// no live entries and the receiver is returned unchanged). It finds them by
// comparing names over every entry the index holds — the fallback for a
// caller that cannot say where the video's entries are; one that can uses
// RemoveIDs.
func (ix *Index) Remove(videoName string) (*Index, int) {
	var ids []int32
	for i, e := range ix.all {
		if e.VideoName == videoName {
			ids = append(ids, int32(i))
		}
	}
	return ix.RemoveIDs(ids)
}

// RemoveIDs returns a new Index with the given entry IDs masked, along with
// how many entries the mask newly covers (0 returns the receiver unchanged).
// IDs the index does not hold and IDs already masked are skipped. Masked
// entries are invisible to every search against the new index; searches
// against older indexes of the chain still see them, exactly like any other
// copy-on-write snapshot. The cost is that of the IDs and the mask pages
// they fall on, independent of how many entries the index holds.
func (ix *Index) RemoveIDs(ids []int32) (*Index, int) {
	var pages []*maskPage
	n := 0
	for _, id := range ids {
		if id < 0 || int(id) >= len(ix.all) || masked(ix.removed, id) {
			continue
		}
		if pages == nil {
			pages = make([]*maskPage, (len(ix.all)+1<<maskPageShift-1)>>maskPageShift)
			for p := copy(pages, ix.removed); p < len(pages); p++ {
				pages[p] = &noneMasked
			}
		}
		p := int(id >> maskPageShift)
		if pg := pages[p]; pg == &noneMasked || (p < len(ix.removed) && pg == ix.removed[p]) {
			cp := *pg // first touch of a page older indexes (or every index) share
			pages[p] = &cp
		}
		w, bit := (id>>6)&(maskPageWords-1), uint64(1)<<uint(id&63)
		if pages[p][w]&bit == 0 { // ids may repeat
			pages[p][w] |= bit
			n++
		}
	}
	if n == 0 {
		return ix, 0
	}
	nix := *ix
	nix.removed = pages
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
