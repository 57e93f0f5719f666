package concept

import (
	"testing"

	"classminer/internal/vidmodel"
)

// nodesAt lists h's nodes at a level, in insertion order.
func nodesAt(h *Hierarchy, level Level) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		if n.Level == level {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(h.Root)
	return out
}

func TestMedicalHierarchyShape(t *testing.T) {
	h := Medical()
	if h.Root == nil || h.Root.Name != "database" {
		t.Fatal("root must be the database node")
	}
	if got := len(nodesAt(h, LevelCluster)); got != 3 {
		t.Fatalf("clusters = %d, want 3", got)
	}
	if got := len(nodesAt(h, LevelSubcluster)); got < 3 {
		t.Fatalf("subclusters = %d, want >= 3", got)
	}
	scenes := nodesAt(h, LevelScene)
	if len(scenes) < 9 {
		t.Fatalf("scene concepts = %d, want >= 9", len(scenes))
	}
}

func TestFindCaseInsensitive(t *testing.T) {
	h := Medical()
	if h.Find("Medical Education") == nil {
		t.Fatal("case-insensitive lookup failed")
	}
	if h.Find("no such thing") != nil {
		t.Fatal("unknown lookup must be nil")
	}
}

func TestNodePath(t *testing.T) {
	h := Medical()
	n := h.Find("medicine/presentation")
	if n == nil {
		t.Fatal("scene concept missing")
	}
	p := n.Path()
	want := []string{"medical education", "medicine", "medicine/presentation"}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path[%d] = %q, want %q", i, p[i], want[i])
		}
	}
}

func TestAddErrors(t *testing.T) {
	h := NewHierarchy("database")
	if _, err := h.Add("missing", "x"); err == nil {
		t.Fatal("want unknown-parent error")
	}
	if _, err := h.Add("database", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Add("database", "a"); err == nil {
		t.Fatal("want duplicate error")
	}
}

func TestSceneConceptMapping(t *testing.T) {
	cases := map[vidmodel.EventKind]string{
		vidmodel.EventPresentation:      "medicine/presentation",
		vidmodel.EventDialog:            "medicine/dialog",
		vidmodel.EventClinicalOperation: "medicine/clinical operation",
		vidmodel.EventUnknown:           "medicine/other",
	}
	h := Medical()
	for kind, want := range cases {
		got := SceneConcept("medicine", kind)
		if got != want {
			t.Fatalf("SceneConcept(%v) = %q, want %q", kind, got, want)
		}
		if h.Find(got) == nil {
			t.Fatalf("concept %q missing from hierarchy", got)
		}
	}
}

func TestLevelString(t *testing.T) {
	for _, l := range []Level{LevelRoot, LevelCluster, LevelSubcluster, LevelScene, Level(9)} {
		if l.String() == "" {
			t.Fatal("empty level string")
		}
	}
}
