// Package access implements the hierarchical video database access control
// of §2: the indexing tree doubles as a protection-granularity lattice, so
// filtering rules can be attached to any semantic concept and apply to its
// whole subtree, while multilevel security clearances gate who may see what
// (no read-up). The deepest applicable rule wins, letting administrators
// carve exceptions inside broadly protected subtrees.
package access

import (
	"fmt"
	"strings"
)

// Clearance is a multilevel-security level. Higher values dominate lower
// ones; a subject may read an object only when its clearance is at least
// the object's classification.
type Clearance int

// The built-in clearance lattice for a medical video library.
const (
	Public Clearance = iota
	Student
	Nurse
	Clinician
	Administrator
)

func (c Clearance) String() string {
	switch c {
	case Public:
		return "public"
	case Student:
		return "student"
	case Nurse:
		return "nurse"
	case Clinician:
		return "clinician"
	case Administrator:
		return "administrator"
	default:
		return fmt.Sprintf("clearance-%d", int(c))
	}
}

// ParseClearance maps a clearance name (as printed by Clearance.String,
// case-insensitive) back to its level. It is how external identity — a
// daemon's token table, a CLI flag — names levels of the built-in lattice.
func ParseClearance(s string) (Clearance, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "public":
		return Public, nil
	case "student":
		return Student, nil
	case "nurse":
		return Nurse, nil
	case "clinician":
		return Clinician, nil
	case "administrator", "admin":
		return Administrator, nil
	}
	return Public, fmt.Errorf("access: unknown clearance %q", s)
}

// User is a subject with a clearance and optional role names.
type User struct {
	Name      string
	Clearance Clearance
	Roles     []string
}

// HasRole reports whether the user holds the named role.
func (u User) HasRole(role string) bool {
	for _, r := range u.Roles {
		if strings.EqualFold(r, role) {
			return true
		}
	}
	return false
}

// Rule protects the subtree rooted at Concept. Exactly one of the grant
// conditions applies: a minimum clearance, a required role, or an outright
// Deny.
type Rule struct {
	// Concept names the hierarchy node the rule is attached to ("" or
	// "database" protects the whole library).
	Concept string
	// MinClearance is the least clearance allowed to read the subtree.
	MinClearance Clearance
	// RequireRole, when non-empty, additionally requires the role.
	RequireRole string
	// Deny forbids access regardless of clearance (e.g. withdrawn
	// material).
	Deny bool
}

// Policy is an ordered rule set over the concept hierarchy.
type Policy struct {
	rules []Rule
}

// NewPolicy builds a policy; rules may arrive in any order.
func NewPolicy(rules ...Rule) *Policy {
	p := &Policy{}
	p.rules = append(p.rules, rules...)
	return p
}

// Add appends a rule.
func (p *Policy) Add(r Rule) { p.rules = append(p.rules, r) }

// Decision explains an access-control outcome.
type Decision struct {
	Allowed bool
	Rule    *Rule // the governing rule; nil when the default applied
	Reason  string
}

// Check evaluates a user against a concept path (root-exclusive, e.g.
// ["medical education", "medicine", "medicine/clinical operation"]). The
// governing rule is the deepest one whose concept appears on the path; with
// no applicable rule the default is allow.
func (p *Policy) Check(u User, path []string) Decision {
	var governing *Rule
	depth := -1
	for i := range p.rules {
		r := &p.rules[i]
		d := matchDepth(r.Concept, path)
		if d > depth {
			depth = d
			governing = r
		}
	}
	if governing == nil {
		return Decision{Allowed: true, Reason: "no applicable rule; default allow"}
	}
	if governing.Deny {
		return Decision{Allowed: false, Rule: governing,
			Reason: fmt.Sprintf("subtree %q is denied", governing.Concept)}
	}
	if u.Clearance < governing.MinClearance {
		return Decision{Allowed: false, Rule: governing,
			Reason: fmt.Sprintf("clearance %v below required %v for %q", u.Clearance, governing.MinClearance, governing.Concept)}
	}
	if governing.RequireRole != "" && !u.HasRole(governing.RequireRole) {
		return Decision{Allowed: false, Rule: governing,
			Reason: fmt.Sprintf("role %q required for %q", governing.RequireRole, governing.Concept)}
	}
	return Decision{Allowed: true, Rule: governing, Reason: "granted"}
}

// Allowed is Check reduced to its boolean.
func (p *Policy) Allowed(u User, path []string) bool { return p.Check(u, path).Allowed }

// matchDepth returns the 1-based depth at which the rule's concept matches
// the path, 0 for a whole-library rule, and -1 for no match.
func matchDepth(concept string, path []string) int {
	if concept == "" || strings.EqualFold(concept, "database") {
		return 0
	}
	for i, name := range path {
		if strings.EqualFold(name, concept) {
			return i + 1
		}
	}
	return -1
}

// FilterInPlace keeps only the items whose paths the user may access,
// compacting them into the input's own backing array — zero allocations. It
// is the filter the search layer applies to result lists; only for callers
// that own items outright (a pooled search scratch), since the dropped tail
// is left as-is past the returned length.
func FilterInPlace[T any](p *Policy, u User, items []T, pathOf func(T) []string) []T {
	out := items[:0]
	for _, it := range items {
		if p.Allowed(u, pathOf(it)) {
			out = append(out, it)
		}
	}
	return out
}
