package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"classminer/internal/access"
	"classminer/internal/trace"
)

// userKey carries the authenticated user through the request context on the
// fallback path (handlers driven directly in tests, without withTrace).
type userKeyT struct{}

var userKey userKeyT

// userOf returns the authenticated user installed by withAuth. On the
// serving path the user lives in the pooled reqState — no context value, no
// interface boxing; the context fallback keeps bare-handler tests working.
func userOf(r *http.Request) access.User {
	if rs := stateOf(r); rs != nil {
		return rs.user
	}
	u, _ := r.Context().Value(userKey).(access.User)
	return u
}

// identity is a configured user with the cache identity of its role set
// (roleKey), rendered once at New so no request sorts or joins roles.
type identity struct {
	user  access.User
	roles string
}

func newIdentity(u access.User) identity { return identity{user: u, roles: roleKey(u.Roles)} }

// identityOf is userOf plus the user's roleKey, for the search cache key.
func identityOf(r *http.Request) (access.User, string) {
	if rs := stateOf(r); rs != nil {
		return rs.user, rs.roles
	}
	u := userOf(r)
	return u, roleKey(u.Roles)
}

// token extracts the request's credential: "Authorization: Bearer <tok>"
// wins, then the X-Api-Token header. Empty string means unauthenticated.
func token(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if tok, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(tok)
		}
		return h // a malformed header still fails the lookup below
	}
	return r.Header.Get("X-Api-Token")
}

// withAuth maps the request token to an access.User — the paper's
// multilevel access control as middleware. Every downstream policy check
// (search filtering, scene queries, admin gates) keys off this identity,
// read back through userOf. The resolved user is written into the request's
// pooled reqState; only when the chain runs without withTrace does it fall
// back to a context value. /healthz stays open for liveness probes.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Match the route normalisation ("/healthz/" serves health too) so
		// liveness and readiness probes never need credentials in any
		// spelling.
		if p := strings.TrimSuffix(r.URL.Path, "/"); p == "/healthz" || p == "/readyz" {
			next.ServeHTTP(w, r)
			return
		}
		sp := trace.StartSpan(r.Context(), "auth")
		tok := token(r)
		var id identity
		switch {
		case tok == "" && s.anon != nil:
			id = *s.anon
		case tok == "":
			sp.End()
			writeError(w, http.StatusUnauthorized, "credentials required (Bearer token or X-Api-Token)")
			return
		default:
			known, ok := s.tokens[tok]
			if !ok {
				sp.End()
				writeError(w, http.StatusUnauthorized, "unknown token")
				return
			}
			id = known
		}
		sp.End()
		if rs, ok := w.(*reqState); ok {
			rs.user, rs.roles = id.user, id.roles
			next.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), userKey, id.user)))
	})
}

// requireClearance enforces a minimum clearance on an endpoint (above and
// beyond the per-result policy filtering). It writes the 403 itself and
// reports whether the request may proceed.
func (s *Server) requireClearance(w http.ResponseWriter, r *http.Request, min access.Clearance) bool {
	if u := userOf(r); u.Clearance < min {
		writeError(w, http.StatusForbidden,
			"clearance "+u.Clearance.String()+" below required "+min.String())
		return false
	}
	return true
}

// withRecovery turns a handler panic into a 500 instead of killing the
// connection (and, under http.Server, spamming the log with a stack only).
// When the handler had already written part of its response before
// panicking, writing a second status/body would corrupt what is on the
// wire, so the recovery leaves the response truncated and only notes the
// panic — on the reqState, so the trace is kept as an error, and on the
// http_panics_total counter either way.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.opts.Logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				s.metrics.countPanic()
				rs, ok := w.(*reqState)
				if ok {
					rs.err = fmt.Sprintf("panic: %v", v)
				}
				if ok && rs.wrote {
					return // mid-response: the envelope below would double-write
				}
				writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// jsonScratch is a reusable response buffer. The hand-written search-reply
// encoders append to buf directly; every other response goes through enc, a
// reflection encoder bound to the same buffer, so either way the response
// hot path allocates no buffer and no encoder per request.
type jsonScratch struct {
	buf []byte
	enc *json.Encoder
}

// Write appends to buf: the scratch is its own encoder's sink.
func (s *jsonScratch) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

var jsonPool = sync.Pool{New: func() any {
	s := &jsonScratch{}
	s.enc = json.NewEncoder(s)
	s.enc.SetIndent("", "  ")
	return s
}}

// jsonPoolMaxBuf caps what goes back in the pool: one outsized response
// (a big batch, a long listing) must not pin its buffer forever.
const jsonPoolMaxBuf = 1 << 20

// release returns the scratch to the pool once its bytes are written out.
func (s *jsonScratch) release() {
	if cap(s.buf) <= jsonPoolMaxBuf {
		jsonPool.Put(s)
	}
}

// jsonContentType is shared by every JSON response's header map; nothing
// appends to or writes through a response header's value slice.
var jsonContentType = []string{"application/json"}

// writeBody sends an encoded JSON body as the whole response: one Write, with
// Content-Length set so a body past net/http's 2 KiB sniff buffer (a k = 10
// search reply is) is not sent chunked.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON writes v with the given status, encoding through a pooled
// buffer so the body is one Write and the encoder state is reused across
// requests.
func writeJSON(w http.ResponseWriter, status int, v any) {
	s := jsonPool.Get().(*jsonScratch)
	defer s.release()
	s.buf = s.buf[:0]
	if err := s.enc.Encode(v); err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, status, s.buf)
}

// writeEncodeError answers a response that could not be encoded. The value
// came from our own handlers, so that is a programming error (or a search
// distance that is not a finite number): a plain 500 rather than a
// half-written body.
func writeEncodeError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", "encoding response: "+err.Error())
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
