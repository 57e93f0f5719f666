package server

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"classminer/internal/access"
)

// TestCachePutCollisionNeverPoisons is the regression test for the Put
// half of the hash-collision guard: two distinct queries forced onto the
// same 64-bit cache key (a fabricated qhash collision) must never serve
// each other's responses. The old Put updated the stored entry's response
// without checking the stored query, so after Put(key, qB, respB) a
// Get(key, qA) — whose stored query was still qA — returned qB's answer.
func TestCachePutCollisionNeverPoisons(t *testing.T) {
	c := newSearchCache(8)
	key := cacheKey{gen: 1, qhash: 0xdeadbeef, k: 5}
	qA := []float64{1, 2, 3}
	qB := []float64{9, 8, 7}
	respA, wantA := testReply(t, 1)
	respB, wantB := testReply(t, 2)

	c.Put(key, qA, respA)
	if got, ok := c.Get(key, qA); !ok || string(got) != wantA {
		t.Fatalf("warm-up Get = (%q, %v), want respA", got, ok)
	}
	// Same key, different query: the forced collision.
	c.Put(key, qB, respB)
	if got, ok := c.Get(key, qA); ok && string(got) != wantA {
		t.Fatalf("query A served query B's response after collision: %q", got)
	}
	// The latest colliding query must be coherent (stored query and
	// response agree).
	if got, ok := c.Get(key, qB); !ok || string(got) != wantB {
		t.Fatalf("Get(qB) = (%q, %v), want respB", got, ok)
	}
	if got, ok := c.Get(key, qA); ok && string(got) != wantA {
		t.Fatalf("query A poisoned after qB overwrote the slot: %q", got)
	}
}

// testReply encodes a distinguishable reply (k marks it) the way a miss does,
// and returns it with the bytes a hit on it must send: the same reply with
// "cached": true.
func testReply(t *testing.T, k int) (fresh []byte, hit string) {
	t.Helper()
	resp := searchResponse{Hits: []searchHit{}, K: k}
	fresh, err := appendSearchResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	resp.Cached = true
	want, err := referenceJSON(t, resp)
	if err != nil {
		t.Fatal(err)
	}
	return fresh, string(want)
}

// TestCachePutSameQueryRefreshes keeps the legitimate update path: a Put
// for the exact query already stored replaces the response in place.
func TestCachePutSameQueryRefreshes(t *testing.T) {
	c := newSearchCache(8)
	key := cacheKey{gen: 1, qhash: 42, k: 3}
	q := []float64{4, 5}
	r1, _ := testReply(t, 1)
	r2, want2 := testReply(t, 2)
	c.Put(key, q, r1)
	c.Put(key, q, r2)
	if got, ok := c.Get(key, q); !ok || string(got) != want2 {
		t.Fatalf("refreshed Get = (%q, %v), want K=2", got, ok)
	}
}

// TestCachePutCopies: the cache owns what it stores. The caller encodes into
// a pooled buffer it reuses the moment the request ends, so a stored reply
// must not alias it.
func TestCachePutCopies(t *testing.T) {
	c := newSearchCache(8)
	key := cacheKey{gen: 1, qhash: 7, k: 1}
	q := []float64{1}
	fresh, want := testReply(t, 1)
	c.Put(key, q, fresh)
	for i := range fresh {
		fresh[i] = 'x'
	}
	q[0] = 2
	if got, ok := c.Get(key, []float64{1}); !ok || string(got) != want {
		t.Fatalf("Get after the caller reused its buffers = (%q, %v), want the stored reply", got, ok)
	}
}

// TestMakeKeyRoleAliasing is the regression test for the role-join bug: a
// "|"-joined role string aliased roles ["a|b"] with ["a","b"], giving two
// different identities — with different policy filters — one cache slot.
// The length-prefixed encoding must keep them distinct.
func TestMakeKeyRoleAliasing(t *testing.T) {
	q := []float64{1, 2}
	u1 := access.User{Name: "x", Clearance: access.Clinician, Roles: []string{"a|b"}}
	u2 := access.User{Name: "y", Clearance: access.Clinician, Roles: []string{"a", "b"}}
	k1 := userKeyFor(7, u1, q, 5)
	k2 := userKeyFor(7, u2, q, 5)
	if k1 == k2 {
		t.Fatalf("roles %v and %v alias to one cache key: %+v", u1.Roles, u2.Roles, k1)
	}
	// More aliasing shapes the naive join collapses ("a|b|c" both ways).
	u3 := access.User{Clearance: access.Clinician, Roles: []string{"a", "b|c"}}
	u4 := access.User{Clearance: access.Clinician, Roles: []string{"a|b", "c"}}
	if userKeyFor(7, u3, q, 5) == userKeyFor(7, u4, q, 5) {
		t.Fatalf("roles %v and %v alias to one cache key", u3.Roles, u4.Roles)
	}
}

// TestMakeKeyRoleNormalisation preserves the intended equivalences: role
// order and case do not change the identity.
func TestMakeKeyRoleNormalisation(t *testing.T) {
	q := []float64{3}
	u1 := access.User{Clearance: access.Nurse, Roles: []string{"Surgeon", "triage"}}
	u2 := access.User{Clearance: access.Nurse, Roles: []string{"TRIAGE", "surgeon"}}
	if userKeyFor(1, u1, q, 5) != userKeyFor(1, u2, q, 5) {
		t.Fatal("role order/case changed the cache identity")
	}
}

// userKeyFor is the key a request by u gets: withAuth hands the handlers the
// identity New precomputed, whose roles are roleKey(u.Roles).
func userKeyFor(gen int64, u access.User, q []float64, k int) cacheKey {
	id := newIdentity(u)
	return makeKey(gen, id.user.Clearance, id.roles, q, k)
}

// TestMakeKeyHashSeparatesQueries: the word-at-a-time hash must keep apart
// the near-identical vectors a byte-at-a-time FNV kept apart — one component
// changed, two swapped, a sign flipped on two components (which cancels in a
// multiply-only word hash), a length change — or such queries would share a
// slot and evict each other for ever.
func TestMakeKeyHashSeparatesQueries(t *testing.T) {
	base := []float64{0.25, 0, 3, 0.5, 0, 1e-9, 7, 7}
	variants := map[string][]float64{
		"one component": {0.25, 0, 3, 0.5, 0, 1e-9, 7, 8},
		"swapped":       {0, 0.25, 3, 0.5, 0, 1e-9, 7, 7},
		"two signs":     {-0.25, 0, -3, 0.5, 0, 1e-9, 7, 7},
		"negative zero": {0.25, math.Copysign(0, -1), 3, 0.5, math.Copysign(0, -1), 1e-9, 7, 7},
		"shorter":       {0.25, 0, 3, 0.5, 0, 1e-9, 7},
		"longer":        {0.25, 0, 3, 0.5, 0, 1e-9, 7, 7, 0},
	}
	seen := map[uint64]string{makeKey(1, 0, "", base, 5).qhash: "base"}
	for name, q := range variants {
		h := makeKey(1, 0, "", q, 5).qhash
		if other, dup := seen[h]; dup {
			t.Errorf("%s hashes like %s (%#x)", name, other, h)
		}
		seen[h] = name
	}
}

// TestCacheHitSendsTheMissReply: what a hit writes is the miss's reply with
// one literal changed, under the same headers, and it is still accounted —
// its own X-Request-Id, its bytes on http_response_bytes_total — although no
// encoder ran. Then the ways an entry must stop answering: another role set
// at the same clearance, and the memory watchdog taking the cache away.
func TestCacheHitSendsTheMissReply(t *testing.T) {
	s := newTestServer(t, Options{Tokens: map[string]access.User{
		"surgeon":   {Name: "a", Clearance: access.Clinician, Roles: []string{"surgeon"}},
		"surgeon-2": {Name: "b", Clearance: access.Clinician, Roles: []string{"SURGEON"}},
		"triage":    {Name: "c", Clearance: access.Clinician, Roles: []string{"triage"}},
	}})
	req := map[string]any{"video": "laparoscopy", "shot": 3, "k": 10}
	search := func(tok string) (body string, rid string) {
		t.Helper()
		w := doRaw(t, s, http.MethodPost, "/v1/search", tok, req)
		if w.Code != http.StatusOK {
			t.Fatalf("search as %s = %d: %s", tok, w.Code, w.Body.String())
		}
		if ct, cl := w.Header().Get("Content-Type"), w.Header().Get("Content-Length"); ct != "application/json" || cl != strconv.Itoa(w.Body.Len()) {
			t.Fatalf("headers = Content-Type %q, Content-Length %q for a %d-byte body", ct, cl, w.Body.Len())
		}
		return w.Body.String(), w.Header().Get("X-Request-Id")
	}
	const sent = `http_response_bytes_total{route="/v1/search"}`

	miss, missRid := search("surgeon")
	if !strings.HasSuffix(miss, "\n  \"cached\": false\n}\n") {
		t.Fatalf("first search is not a miss:\n%s", miss)
	}
	before := metricValue(t, scrape(t, s, "surgeon"), sent)
	hit, hitRid := search("surgeon")
	if want := strings.TrimSuffix(miss, "false\n}\n") + "true\n}\n"; hit != want {
		t.Fatalf("hit differs from the miss in more than the cached flag\n--- hit\n%s\n--- miss\n%s", hit, miss)
	}
	if len(hitRid) != 16 || hitRid == missRid {
		t.Fatalf("hit's X-Request-Id = %q (miss had %q), want its own 16 hex digits", hitRid, missRid)
	}
	if got := metricValue(t, scrape(t, s, "surgeon"), sent) - before; got != float64(len(hit)) {
		t.Fatalf("%s grew by %v over a %d-byte hit", sent, got, len(hit))
	}

	// Identity is (clearance, role set): case and order do not split it, a
	// different role does.
	if body, _ := search("surgeon-2"); body != hit {
		t.Fatal("the same role in another case missed the shared entry")
	}
	if body, _ := search("triage"); body != miss {
		t.Fatal("a different role set at the same clearance was served another identity's entry")
	}

	// The memory watchdog's SetCapacity(0): entries go, and nothing is stored
	// until capacity comes back.
	s.cache.SetCapacity(0)
	for i := 0; i < 2; i++ {
		if body, _ := search("surgeon"); body != miss {
			t.Fatalf("search %d with the cache shed was not a miss", i)
		}
	}
	s.cache.SetCapacity(4)
	if body, _ := search("surgeon"); body != miss {
		t.Fatal("an entry survived SetCapacity(0)")
	}
	if body, _ := search("surgeon"); body != hit {
		t.Fatal("restored cache did not serve the re-stored entry")
	}
}
