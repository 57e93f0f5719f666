package access

import (
	"testing"
	"testing/quick"
)

var clinicalPath = []string{"medical education", "medicine", "medicine/clinical operation"}
var dialogPath = []string{"medical education", "medicine", "medicine/dialog"}

func TestDefaultAllow(t *testing.T) {
	p := NewPolicy()
	if !p.Allowed(User{Name: "anon"}, clinicalPath) {
		t.Fatal("empty policy must default-allow")
	}
}

func TestParseClearance(t *testing.T) {
	for _, c := range []Clearance{Public, Student, Nurse, Clinician, Administrator} {
		got, err := ParseClearance(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseClearance(%q) = %v, %v", c.String(), got, err)
		}
	}
	if got, err := ParseClearance(" Admin "); err != nil || got != Administrator {
		t.Fatalf("admin alias: %v, %v", got, err)
	}
	if _, err := ParseClearance("wizard"); err == nil {
		t.Fatal("want error for unknown clearance")
	}
}

func TestClearanceGate(t *testing.T) {
	p := NewPolicy(Rule{Concept: "medicine/clinical operation", MinClearance: Clinician})
	if p.Allowed(User{Name: "kid", Clearance: Public}, clinicalPath) {
		t.Fatal("public user must not see clinical operations")
	}
	if !p.Allowed(User{Name: "dr", Clearance: Clinician}, clinicalPath) {
		t.Fatal("clinician must see clinical operations")
	}
	// The rule must not leak onto sibling concepts.
	if !p.Allowed(User{Name: "kid", Clearance: Public}, dialogPath) {
		t.Fatal("dialog scenes are unprotected")
	}
}

func TestSubtreeInheritance(t *testing.T) {
	p := NewPolicy(Rule{Concept: "medical education", MinClearance: Student})
	if p.Allowed(User{Clearance: Public}, clinicalPath) {
		t.Fatal("subtree rule must protect descendants")
	}
	if !p.Allowed(User{Clearance: Student}, dialogPath) {
		t.Fatal("student must pass the subtree rule")
	}
}

func TestDeepestRuleWins(t *testing.T) {
	p := NewPolicy(
		Rule{Concept: "medical education", MinClearance: Clinician},
		Rule{Concept: "medicine/dialog", MinClearance: Public}, // exception
	)
	if !p.Allowed(User{Clearance: Public}, dialogPath) {
		t.Fatal("deeper exception must override the subtree rule")
	}
	if p.Allowed(User{Clearance: Public}, clinicalPath) {
		t.Fatal("subtree rule still governs siblings")
	}
}

func TestDenyRule(t *testing.T) {
	p := NewPolicy(Rule{Concept: "medicine/clinical operation", Deny: true})
	if p.Allowed(User{Clearance: Administrator}, clinicalPath) {
		t.Fatal("deny must beat any clearance")
	}
	d := p.Check(User{Clearance: Administrator}, clinicalPath)
	if d.Rule == nil || d.Reason == "" {
		t.Fatal("decision must explain itself")
	}
}

func TestRoleRequirement(t *testing.T) {
	p := NewPolicy(Rule{Concept: "medicine", MinClearance: Student, RequireRole: "med-school"})
	u := User{Clearance: Clinician}
	if p.Allowed(u, clinicalPath) {
		t.Fatal("missing role must deny")
	}
	u.Roles = []string{"Med-School"}
	if !p.Allowed(u, clinicalPath) {
		t.Fatal("role match must be case-insensitive")
	}
}

func TestWholeLibraryRule(t *testing.T) {
	p := NewPolicy(Rule{Concept: "database", MinClearance: Student})
	if p.Allowed(User{Clearance: Public}, dialogPath) {
		t.Fatal("library-wide rule must apply")
	}
	p2 := NewPolicy(Rule{Concept: "", MinClearance: Student})
	if p2.Allowed(User{Clearance: Public}, dialogPath) {
		t.Fatal("empty concept means library-wide")
	}
}

func TestFilter(t *testing.T) {
	p := NewPolicy(Rule{Concept: "medicine/clinical operation", MinClearance: Clinician})
	items := [][]string{clinicalPath, dialogPath}
	got := FilterInPlace(p, User{Clearance: Public}, items, func(x []string) []string { return x })
	if len(got) != 1 || got[0][2] != "medicine/dialog" {
		t.Fatalf("filter result = %v", got)
	}
	if &got[0] != &items[0] {
		t.Fatal("FilterInPlace must compact into the input's backing array")
	}
}

// Property: access is monotone in clearance — raising a user's clearance
// can never revoke access (with role-free policies).
func TestPropertyClearanceMonotone(t *testing.T) {
	p := NewPolicy(
		Rule{Concept: "medical education", MinClearance: Student},
		Rule{Concept: "medicine", MinClearance: Nurse},
		Rule{Concept: "medicine/clinical operation", MinClearance: Clinician},
	)
	f := func(level uint8) bool {
		c := Clearance(level % 5)
		for _, path := range [][]string{clinicalPath, dialogPath} {
			if p.Allowed(User{Clearance: c}, path) && !p.Allowed(User{Clearance: c + 1}, path) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClearanceString(t *testing.T) {
	for _, c := range []Clearance{Public, Student, Nurse, Clinician, Administrator, Clearance(42)} {
		if c.String() == "" {
			t.Fatal("empty clearance string")
		}
	}
}
