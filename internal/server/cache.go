package server

import (
	"container/list"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"classminer/internal/access"
)

// cacheKey identifies one search answer. Generation makes invalidation
// free: when the library or its policy changes, Library.Generation moves
// and every older entry simply stops being addressable (LRU eviction
// reclaims it). Identity (clearance + roles) is part of the key because
// the policy filter makes the same query answer differently per user.
type cacheKey struct {
	gen       int64
	clearance access.Clearance
	roles     string // roleKey of the caller's role set
	qhash     uint64
	k         int
}

// cacheEntry retains the full query so a 64-bit hash collision degrades to
// a miss, never to another query's results. body is the encoded reply a hit
// sends (see searchCache.Put); it is never written after it is stored, so a
// reader may use it after the cache lock is released.
type cacheEntry struct {
	key   cacheKey
	query []float64
	body  []byte
}

// searchCache is a mutex-guarded LRU over recent search replies, held as the
// bytes that go on the wire: a hit encodes nothing.
type searchCache struct {
	mu                      sync.Mutex
	cap                     int
	ll                      *list.List // front = most recently used
	byKey                   map[cacheKey]*list.Element
	hits, misses, evictions int64
}

// newSearchCache builds a cache holding up to capacity entries;
// capacity <= 0 disables caching (every lookup misses, Put is a no-op).
func newSearchCache(capacity int) *searchCache {
	return &searchCache{cap: capacity, ll: list.New(), byKey: map[cacheKey]*list.Element{}}
}

// roleKey renders a role set as its cache identity: lowercase, sorted, each
// role length-prefixed. Length prefixes rather than a separator because "|"
// is a legal character inside a role name: a bare join would alias ["a|b"]
// with ["a","b"] — one cache identity for two distinct role sets, letting one
// user's policy-filtered answer leak to the other. Server.New computes it
// once per configured identity, so requests only carry the string.
func roleKey(roles []string) string {
	roles = append([]string(nil), roles...)
	for i := range roles {
		roles[i] = strings.ToLower(roles[i])
	}
	sort.Strings(roles)
	var rb strings.Builder
	for _, r := range roles {
		rb.WriteString(strconv.Itoa(len(r)))
		rb.WriteByte(':')
		rb.WriteString(r)
	}
	return rb.String()
}

// makeKey hashes the query into a cache key for the given identity (roles is
// the caller's roleKey). The hash is FNV-1a taken a float64 word at a time,
// with a fold after each multiply so a word's high bits reach the low ones;
// the key never leaves the process, so nothing depends on its exact value.
func makeKey(gen int64, clearance access.Clearance, roles string, query []float64, k int) cacheKey {
	const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211
	h := uint64(fnvOffset64)
	for _, v := range query {
		h = (h ^ math.Float64bits(v)) * fnvPrime64
		h ^= h >> 32
	}
	return cacheKey{gen: gen, clearance: clearance, roles: roles, qhash: h, k: k}
}

// Get returns the cached reply body for (key, query), if any. The bytes are
// shared with the cache: callers write them out, never into them.
func (c *searchCache) Get(key cacheKey, query []float64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		if sameQuery(e.query, query) {
			c.ll.MoveToFront(el)
			c.hits++
			return e.body, true
		}
	}
	c.misses++
	return nil, false
}

// Put stores the reply a later hit will send — fresh, the reply just encoded
// for the miss, copied with its `"cached": false` flipped to true — evicting
// the least recently used entry when full. Both copies (reply and query) are
// made before the lock is taken for good: every hit's Get waits on that lock.
func (c *searchCache) Put(key cacheKey, query []float64, fresh []byte) {
	c.mu.Lock()
	enabled := c.cap > 0
	c.mu.Unlock()
	if !enabled {
		return // the watchdog emptied the cache to shed memory: copy nothing
	}
	body := asCacheHit(fresh)
	q := append([]float64(nil), query...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return // disabled while the copies were made
	}
	if el, ok := c.byKey[key]; ok {
		// Same query: the reply is refreshed. A different one is a 64-bit
		// qhash collision — two distinct queries share the key — and the
		// stored query and reply must always agree: updating body alone would
		// hand this reply to the *other* query's callers, the exact poisoning
		// Get's sameQuery guard exists to prevent. Either way the entry is
		// replaced wholesale (one slot per key; latest query wins, the other
		// degrades to a miss).
		e := el.Value.(*cacheEntry)
		e.query, e.body = q, body
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, query: q, body: body})
	c.evictDown(c.cap)
}

// evictDown drops least recently used entries until at most n remain.
func (c *searchCache) evictDown(n int) {
	for c.ll.Len() > n {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// SetCapacity rebounds the cache, evicting LRU entries that no longer fit.
// The memory watchdog calls it to give discretionary memory back under heap
// pressure (and to restore it on recovery); capacity <= 0 empties the cache
// and disables Put.
func (c *searchCache) SetCapacity(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capacity
	c.evictDown(max(capacity, 0))
}

func sameQuery(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cacheStats is the /v1/stats slice of the cache.
type cacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

func (c *searchCache) Stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len(), Capacity: c.cap,
	}
}
