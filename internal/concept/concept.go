// Package concept models §2 of the paper: the domain concept hierarchy of
// Fig. 2 that the semantic-sensitive video classifier and the database
// indexing structure are derived from.
//
// Every node of the hierarchy names a human-meaningful concept; the
// contextual relationship between a node and its children is a
// hypernym/hyponym relation.
package concept

import (
	"fmt"
	"strings"

	"classminer/internal/vidmodel"
)

// Level identifies the depth bands of Fig. 1 / Fig. 2.
type Level int

const (
	// LevelRoot is the database root node.
	LevelRoot Level = iota
	// LevelCluster holds semantic clusters (health care, medical
	// education, medical report).
	LevelCluster
	// LevelSubcluster holds sub-level clusters (medicine, nursing, ...).
	LevelSubcluster
	// LevelScene holds semantic scene concepts (presentation, dialog,
	// clinical operation).
	LevelScene
)

func (l Level) String() string {
	switch l {
	case LevelRoot:
		return "root"
	case LevelCluster:
		return "cluster"
	case LevelSubcluster:
		return "subcluster"
	case LevelScene:
		return "scene"
	default:
		return fmt.Sprintf("level-%d", int(l))
	}
}

// Node is one concept in the hierarchy.
type Node struct {
	Name     string
	Level    Level
	Parent   *Node
	Children []*Node
}

// Path returns the node names from the root down to this node (excluding
// the root itself).
func (n *Node) Path() []string {
	var rev []string
	for cur := n; cur != nil && cur.Level != LevelRoot; cur = cur.Parent {
		rev = append(rev, cur.Name)
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Hierarchy is a rooted concept tree with name lookup.
type Hierarchy struct {
	Root   *Node
	byName map[string]*Node
}

// Find returns the node with the given (case-insensitive) name, or nil.
func (h *Hierarchy) Find(name string) *Node {
	return h.byName[strings.ToLower(name)]
}

// builder utilities ---------------------------------------------------------

// NewHierarchy starts a hierarchy with a root node.
func NewHierarchy(rootName string) *Hierarchy {
	root := &Node{Name: rootName, Level: LevelRoot}
	return &Hierarchy{Root: root, byName: map[string]*Node{strings.ToLower(rootName): root}}
}

// Add attaches a new concept under the named parent. Level is inferred as
// parent level + 1. It returns an error for unknown parents or duplicates.
func (h *Hierarchy) Add(parent, name string) (*Node, error) {
	p := h.Find(parent)
	if p == nil {
		return nil, fmt.Errorf("concept: unknown parent %q", parent)
	}
	key := strings.ToLower(name)
	if _, dup := h.byName[key]; dup {
		return nil, fmt.Errorf("concept: duplicate concept %q", name)
	}
	n := &Node{Name: name, Level: p.Level + 1, Parent: p}
	p.Children = append(p.Children, n)
	h.byName[key] = n
	return n, nil
}

// MustAdd is Add for static construction; it panics on error.
func (h *Hierarchy) MustAdd(parent, name string) *Node {
	n, err := h.Add(parent, name)
	if err != nil {
		panic(err)
	}
	return n
}

// Medical returns the concept hierarchy of Fig. 2: the database root over
// semantic clusters (health care, medical education, medical report),
// subclusters (medicine, nursing, dentistry) and the three semantic scene
// concepts (presentation, dialog, clinical operation).
func Medical() *Hierarchy {
	h := NewHierarchy("database")
	for _, c := range []string{"health care", "medical education", "medical report"} {
		h.MustAdd("database", c)
	}
	for _, sc := range []string{"medicine", "nursing", "dentistry"} {
		h.MustAdd("medical education", sc)
	}
	// Scene concepts exist under every subcluster; names are qualified to
	// stay unique in the tree.
	for _, sc := range []string{"medicine", "nursing", "dentistry"} {
		for _, s := range []string{"presentation", "dialog", "clinical operation", "other"} {
			h.MustAdd(sc, sc+"/"+s)
		}
	}
	// The other clusters carry their own scene-level leaves.
	h.MustAdd("health care", "health care/general")
	h.MustAdd("medical report", "medical report/general")
	return h
}

// SceneConcept maps a mined event kind to its scene-level concept name
// under the given subcluster — the "semantic-sensitive classifier" mapping
// of §2 between mined scenes and the hierarchy's leaf concepts.
func SceneConcept(subcluster string, kind vidmodel.EventKind) string {
	var leaf string
	switch kind {
	case vidmodel.EventPresentation:
		leaf = "presentation"
	case vidmodel.EventDialog:
		leaf = "dialog"
	case vidmodel.EventClinicalOperation:
		leaf = "clinical operation"
	default:
		leaf = "other" // §4.3 step 5: the event could not be determined
	}
	return subcluster + "/" + leaf
}
