package server

import (
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"sync"

	"classminer/internal/featrow"
	"classminer/internal/store"
)

// Request bodies are decoded by hand. A write-pool body is 26 KB holding
// ≈ 6 800 numbers, most of them a bare 0 in a zero-suppressed histogram, and
// reflecting over them was the largest single cost of an ingest; on a cached
// search, reflecting over four fields was the largest piece of what is left.
// decodeIngest, decodeSearch and decodeBatch are the only decoders of a POST
// /v1/videos, /v1/search and /v1/search/batch body, and each yields exactly
// the value json.NewDecoder(body).Decode(req) yields for the same bytes,
// accepting exactly the bodies it accepts (decodeIngest hands each shot's
// feature over packed, in SavedShot.Row, holding the bits encoding/json
// decodes into Color and Texture):
//
//   - leading whitespace is skipped, and whatever follows the first value is
//     ignored;
//   - the whole first value must be valid JSON, unknown keys included, nested
//     at most 10 000 deep (encoding/json's limit);
//   - a key selects its field exactly first, then under Unicode case folding;
//   - a repeated key decodes again into what the first one left: a struct or
//     map merges, a slice is reused element by element, a later value wins;
//   - null leaves a number, string, bool or struct as it is and sets a
//     slice, map or pointer to nil, while [] and {} make empty, non-nil ones;
//   - a number must match the JSON grammar before strconv parses it, an int
//     takes neither a fraction nor an exponent, and a value out of range or of
//     the wrong JSON type is an error.
//
// A string holding an escape or a byte ≥ 0x80 is unquoted by encoding/json
// itself, one token at a time, so \u escapes, surrogate pairs and invalid
// UTF-8 come out the same without a second implementation of them.
// TestDecodeIngestMatchesEncodingJSON, TestDecodeSearchMatchesEncodingJSON,
// FuzzDecodeIngest and FuzzDecodeSearch hold each of them to encoding/json
// value for value and float bit for float bit.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// maxPooledValues caps the feature scratch a pooled decoder keeps: one
// outsized body must not pin its scratch forever.
const maxPooledValues = 1 << 17

// syntaxError is malformed JSON, which encoding/json rejects before it
// decodes anything.
type syntaxError struct {
	msg string
	off int
}

func (e *syntaxError) Error() string {
	return e.msg + " at offset " + strconv.Itoa(e.off)
}

// typeError is well-formed JSON that does not fit the request: a value of
// the wrong JSON type, or a number its field cannot hold.
type typeError struct {
	value, into string
}

func (e *typeError) Error() string {
	return "cannot decode " + e.value + " into " + e.into
}

// decoder reads one body front to back. Feature rows go to vals, a scratch
// shared by every row of the body; decode moves the rows the request keeps
// into arenas of their own before it returns.
type decoder struct {
	b     []byte
	i     int // read position in b
	depth int // open arrays and objects
	vals  []float64
}

var decoderPool = sync.Pool{New: func() any {
	// vals is never nil, so an empty row cut from it is non-nil, as [] is.
	return &decoder{vals: make([]float64, 0, 8192)}
}}

// decodeIngest decodes body into req as encoding/json would (see above). On
// error req is left zero.
func decodeIngest(body []byte, req *ingestRequest) error {
	return decode(body, req, requestFields, func(r *ingestRequest) {
		if r.Saved != nil {
			rehome(r.Saved)
		}
	})
}

// decodeSearch decodes a POST /v1/search body into req as encoding/json
// would. On error req is left zero.
func decodeSearch(body []byte, req *searchRequest) error {
	return decode(body, req, searchFields, func(r *searchRequest) {
		arena := make(rowArena, len(r.Query))
		r.Query = arena.cut(r.Query)
	})
}

// decodeBatch decodes a POST /v1/search/batch body into req as encoding/json
// would. On error req is left zero.
func decodeBatch(body []byte, req *batchSearchRequest) error {
	return decode(body, req, batchFields, func(r *batchSearchRequest) {
		n := 0
		for i := range r.Items {
			n += len(r.Items[i].Query)
		}
		arena := make(rowArena, n)
		for i := range r.Items {
			r.Items[i].Query = arena.cut(r.Items[i].Query)
		}
		// A repeated "items" key can leave decoded items past the length;
		// they still point into the scratch.
		clear(r.Items[len(r.Items):cap(r.Items)])
	})
}

// decode decodes body into the struct *v its fields describe, as
// encoding/json would. detach moves every row *v keeps out of the pooled
// scratch before the decoder goes back to the pool. On error *v is left
// zero.
func decode[T any](body []byte, v *T, fields []field[T], detach func(*T)) error {
	d := decoderPool.Get().(*decoder)
	d.b, d.i, d.depth, d.vals = body, 0, 0, d.vals[:0]
	err := error(io.EOF) // a body of nothing but whitespace, as to a json.Decoder
	if _, nerr := d.next(); nerr == nil {
		err = object(d, v, fields)
	}
	if _, ok := err.(*typeError); ok {
		// encoding/json reads the whole value before it decodes any of it, so
		// a syntax error anywhere, or the body ending early, outranks a type
		// error found on the way.
		sk := decoder{b: body}
		if serr := sk.skip(); serr != nil {
			err = serr
		}
	}
	if err == nil {
		detach(v)
	}
	d.b = nil
	if cap(d.vals) <= maxPooledValues {
		decoderPool.Put(d)
	}
	if err != nil {
		var zero T
		*v = zero // it may hold rows cut from the pooled scratch
	}
	return err
}

// rowArena hands out rows cut from one allocation, each with no spare
// capacity, so an append through one row can never reach its neighbour.
type rowArena []float64

// cut returns a copy of row in the arena; nil stays nil.
func (a *rowArena) cut(row []float64) []float64 {
	if row == nil {
		return nil
	}
	n := copy(*a, row)
	out := (*a)[:n:n]
	*a = (*a)[n:]
	return out
}

// rehome packs every feature row of r from the scratch straight into one
// featrow arena sized to hold exactly them (one per run of one shape), the
// form the library registers and the journal writes, and drops the dense
// rows.
func rehome(r *store.SavedResult) {
	rows := make([]featrow.Row, len(r.Shots))
	featrow.Pack(rows, func(i int) (color, texture []float64) {
		return r.Shots[i].Color, r.Shots[i].Texture
	})
	for i := range r.Shots {
		sh := &r.Shots[i]
		sh.Row, sh.Color, sh.Texture = rows[i], nil, nil
	}
	// A repeated "shots" key can leave decoded shots past the length; they
	// still point into the scratch.
	clear(r.Shots[len(r.Shots):cap(r.Shots)])
}

// --- the fields of a request ------------------------------------------------

// field is one JSON member of struct T and how to decode its value.
type field[T any] struct {
	name   string
	decode func(*decoder, *T) error
}

// requestFields names the keys of ingestRequest's JSON tags, store.IngestBody's
// included; the decoder's differential tests hold the two to each other.
var requestFields = []field[ingestRequest]{
	{"subcluster", func(d *decoder, r *ingestRequest) error { return d.string(&r.Subcluster) }},
	{"saved", func(d *decoder, r *ingestRequest) error { return d.saved(&r.Saved) }},
	{"name", func(d *decoder, r *ingestRequest) error { return d.string(&r.Name) }},
	{"replace", func(d *decoder, r *ingestRequest) error { return d.bool(&r.Replace) }},
}

var searchFields = []field[searchRequest]{
	{"query", func(d *decoder, r *searchRequest) error { return d.row(&r.Query) }},
	{"video", func(d *decoder, r *searchRequest) error { return d.string(&r.Video) }},
	{"shot", func(d *decoder, r *searchRequest) error { return d.int(&r.Shot) }},
	{"k", func(d *decoder, r *searchRequest) error { return d.int(&r.K) }},
}

var batchFields = []field[batchSearchRequest]{
	{"items", func(d *decoder, r *batchSearchRequest) error { return array(d, &r.Items, searchItem) }},
	{"k", func(d *decoder, r *batchSearchRequest) error { return d.int(&r.K) }},
}

var resultFields = []field[store.SavedResult]{
	{"version", func(d *decoder, r *store.SavedResult) error { return d.int(&r.Version) }},
	{"videoName", func(d *decoder, r *store.SavedResult) error { return d.string(&r.VideoName) }},
	{"fps", func(d *decoder, r *store.SavedResult) error { return d.float(&r.FPS) }},
	{"totalFrames", func(d *decoder, r *store.SavedResult) error { return d.int(&r.TotalFrames) }},
	{"shots", func(d *decoder, r *store.SavedResult) error { return array(d, &r.Shots, shot) }},
	{"groups", func(d *decoder, r *store.SavedResult) error { return array(d, &r.Groups, group) }},
	{"scenes", func(d *decoder, r *store.SavedResult) error { return array(d, &r.Scenes, scene) }},
	{"discarded", func(d *decoder, r *store.SavedResult) error { return array(d, &r.Discarded, scene) }},
	{"clusters", func(d *decoder, r *store.SavedResult) error { return array(d, &r.Clusters, cluster) }},
	{"events", func(d *decoder, r *store.SavedResult) error { return d.events(&r.Events) }},
}

var shotFields = []field[store.SavedShot]{
	{"index", func(d *decoder, s *store.SavedShot) error { return d.int(&s.Index) }},
	{"start", func(d *decoder, s *store.SavedShot) error { return d.int(&s.Start) }},
	{"end", func(d *decoder, s *store.SavedShot) error { return d.int(&s.End) }},
	{"repFrame", func(d *decoder, s *store.SavedShot) error { return d.int(&s.RepFrame) }},
	{"color", func(d *decoder, s *store.SavedShot) error { return d.row(&s.Color) }},
	{"texture", func(d *decoder, s *store.SavedShot) error { return d.row(&s.Texture) }},
}

var groupFields = []field[store.SavedGroup]{
	{"index", func(d *decoder, g *store.SavedGroup) error { return d.int(&g.Index) }},
	{"kind", func(d *decoder, g *store.SavedGroup) error { return d.int(&g.Kind) }},
	{"shots", func(d *decoder, g *store.SavedGroup) error { return array(d, &g.Shots, (*decoder).int) }},
	{"repShots", func(d *decoder, g *store.SavedGroup) error { return array(d, &g.RepShots, (*decoder).int) }},
}

var sceneFields = []field[store.SavedScene]{
	{"index", func(d *decoder, s *store.SavedScene) error { return d.int(&s.Index) }},
	{"groups", func(d *decoder, s *store.SavedScene) error { return array(d, &s.Groups, (*decoder).int) }},
	{"repGroup", func(d *decoder, s *store.SavedScene) error { return d.int(&s.RepGroup) }},
	{"event", func(d *decoder, s *store.SavedScene) error { return d.int(&s.Event) }},
}

var clusterFields = []field[store.SavedCluster]{
	{"index", func(d *decoder, c *store.SavedCluster) error { return d.int(&c.Index) }},
	{"scenes", func(d *decoder, c *store.SavedCluster) error { return array(d, &c.Scenes, (*decoder).int) }},
	{"repGroup", func(d *decoder, c *store.SavedCluster) error { return d.int(&c.RepGroup) }},
}

func searchItem(d *decoder, r *searchRequest) error   { return object(d, r, searchFields) }
func shot(d *decoder, s *store.SavedShot) error       { return object(d, s, shotFields) }
func group(d *decoder, g *store.SavedGroup) error     { return object(d, g, groupFields) }
func scene(d *decoder, s *store.SavedScene) error     { return object(d, s, sceneFields) }
func cluster(d *decoder, c *store.SavedCluster) error { return object(d, c, clusterFields) }

// lookup returns the field key selects, as encoding/json selects one:
// exactly first, then under Unicode case folding; nil for an unknown key.
func lookup[T any](fields []field[T], key []byte) *field[T] {
	for i := range fields {
		if string(key) == fields[i].name {
			return &fields[i]
		}
	}
	for i := range fields {
		if strings.EqualFold(string(key), fields[i].name) {
			return &fields[i]
		}
	}
	return nil
}

// --- values by Go type ------------------------------------------------------

// object decodes an object into the struct *v, skipping unknown keys; null
// leaves *v as it is.
func object[T any](d *decoder, v *T, fields []field[T]) error {
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.literal("null")
	case c != '{':
		return d.mismatch(c, "object")
	}
	more, err := d.open('}')
	for more && err == nil {
		var key []byte
		if key, err = d.key(); err != nil {
			return err
		}
		if f := lookup(fields, key); f != nil {
			err = f.decode(d, v)
		} else {
			err = d.skip()
		}
		if err == nil {
			more, err = d.more('}')
		}
	}
	return err
}

// array decodes an array into *s in place, as encoding/json does: element i
// is decoded into (*s)[i] — over whatever a repeated key left there, past the
// length if the capacity reaches — and the slice is then cut to the elements
// read. [] makes an empty, non-nil slice and null a nil one.
func array[T any](d *decoder, s *[]T, elem func(*decoder, *T) error) error {
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*s = nil
		return nil
	case c != '[':
		return d.mismatch(c, "array")
	}
	v, n := *s, 0
	more, err := d.open(']')
	for more && err == nil {
		if n == cap(v) {
			var zero T
			v = append(v[:n], zero)
		}
		v = v[:n+1]
		if err = elem(d, &v[n]); err == nil {
			n++
			more, err = d.more(']')
		}
	}
	if err != nil {
		return err
	}
	if n == 0 {
		*s = []T{}
	} else {
		*s = v[:n]
	}
	return nil
}

// row decodes a feature row. A row met for the first time is read straight
// into the scratch; a repeated key decodes into the row it left, as array
// does.
func (d *decoder) row(p *[]float64) error {
	if *p != nil {
		return array(d, p, (*decoder).float)
	}
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.literal("null")
	case c != '[':
		return d.mismatch(c, "array")
	}
	start := len(d.vals)
	more, err := d.open(']')
	for more && err == nil {
		var f float64
		if c, err = d.next(); err != nil {
			return err
		}
		switch {
		case c == '0' && d.i+1 < len(d.b) && (d.b[d.i+1] == ',' || d.b[d.i+1] == ']'):
			d.i++ // a bare 0: most of a zero-suppressed histogram
		case c == '-' || '0' <= c && c <= '9':
			var tok []byte
			if tok, err = d.number(); err == nil {
				f, err = parseFloat(tok)
			}
		case c == 'n':
			err = d.literal("null") // the element stays 0
		default:
			err = d.mismatch(c, "float64")
		}
		if err == nil {
			d.vals = append(d.vals, f)
			more, err = d.more(']')
		}
	}
	if err != nil {
		return err
	}
	*p = d.vals[start:len(d.vals):len(d.vals)]
	return nil
}

func (d *decoder) saved(p **store.SavedResult) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		if err := d.literal("null"); err != nil {
			return err
		}
		*p = nil
		return nil
	}
	if *p == nil {
		*p = new(store.SavedResult)
	}
	return object(d, *p, resultFields)
}

// events decodes the scene → event map; its keys are read with
// strconv.ParseInt, as encoding/json reads integer map keys.
func (d *decoder) events(p *map[int]int) error {
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*p = nil
		return nil
	case c != '{':
		return d.mismatch(c, "object")
	}
	if *p == nil {
		*p = map[int]int{}
	}
	more, err := d.open('}')
	for more && err == nil {
		var key []byte
		if key, err = d.key(); err != nil {
			return err
		}
		var v int
		if err = d.int(&v); err != nil {
			return err
		}
		k, perr := strconv.ParseInt(string(key), 10, 64)
		if perr != nil || int64(int(k)) != k {
			return &typeError{"number " + string(key), "int map key"}
		}
		(*p)[int(k)] = v
		more, err = d.more('}')
	}
	return err
}

func (d *decoder) string(p *string) error {
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.literal("null")
	case c != '"':
		return d.mismatch(c, "string")
	}
	tok, raw, err := d.str()
	if err != nil {
		return err
	}
	if raw {
		*p, err = unquote(tok)
		return err
	}
	*p = string(tok[1 : len(tok)-1])
	return nil
}

func (d *decoder) float(p *float64) error {
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch(c, "float64")
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	f, err := parseFloat(tok)
	if err == nil {
		*p = f
	}
	return err
}

func (d *decoder) int64(p *int64) error {
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch(c, "int")
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return &typeError{"number " + string(tok), "int"}
	}
	*p = n
	return nil
}

func (d *decoder) int(p *int) error {
	n := int64(*p)
	if err := d.int64(&n); err != nil {
		return err
	}
	if int64(int(n)) != n {
		return &typeError{"number " + strconv.FormatInt(n, 10), "int"}
	}
	*p = int(n)
	return nil
}

func (d *decoder) bool(p *bool) error {
	c, err := d.next()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return d.literal("null")
	case c == 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*p = true
		return nil
	case c == 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*p = false
		return nil
	}
	return d.mismatch(c, "bool")
}

// parseFloat parses a token that matched the JSON number grammar.
func parseFloat(tok []byte) (float64, error) {
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, &typeError{"number " + string(tok), "float64"}
	}
	return f, nil
}

// unquote unquotes a string token holding an escape or a non-ASCII byte the
// way encoding/json does, by handing it to encoding/json.
func unquote(tok []byte) (string, error) {
	var s string
	err := json.Unmarshal(tok, &s)
	return s, err
}

// mismatch is the error for a value, starting with c, that its field cannot
// take: a type error when c starts a JSON value, a syntax error when it
// starts none.
func (d *decoder) mismatch(c byte, into string) error {
	var value string
	switch {
	case c == '{':
		value = "object"
	case c == '[':
		value = "array"
	case c == '"':
		value = "string"
	case c == 't' || c == 'f':
		value = "bool"
	case c == '-' || '0' <= c && c <= '9':
		value = "number"
	default:
		return d.badChar(c, "looking for beginning of value")
	}
	return &typeError{value, into}
}

// --- the lexer --------------------------------------------------------------

func (d *decoder) syntax(msg string) error { return &syntaxError{msg, d.i} }

func (d *decoder) badChar(c byte, context string) error {
	return d.syntax("invalid character " + strconv.QuoteRune(rune(c)) + " " + context)
}

// next skips whitespace and returns the byte after it without consuming it.
// Input ending first is io.ErrUnexpectedEOF.
func (d *decoder) next() (byte, error) {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c, nil
		}
	}
	return 0, io.ErrUnexpectedEOF
}

// literal consumes true, false or null, whichever word is.
func (d *decoder) literal(word string) error {
	rest := d.b[d.i:]
	if len(rest) >= len(word) && string(rest[:len(word)]) == word {
		d.i += len(word)
		return nil
	}
	for i := 0; i < len(rest) && i < len(word); i++ {
		if rest[i] != word[i] {
			d.i += i
			return d.badChar(rest[i], "in literal "+word)
		}
	}
	return io.ErrUnexpectedEOF
}

// number consumes a number, which must match the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes:
// strconv alone would also take +1, .5, 0x1p3 and inf.
func (d *decoder) number() ([]byte, error) {
	b, i := d.b, d.i
	digits := func() error {
		if i == len(b) {
			return io.ErrUnexpectedEOF
		}
		if b[i] < '0' || b[i] > '9' {
			d.i = i
			return d.badChar(b[i], "in numeric literal")
		}
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return nil
	}
	if b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if err := digits(); err != nil {
		return nil, err
	}
	if i < len(b) && b[i] == '.' {
		i++
		if err := digits(); err != nil {
			return nil, err
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if err := digits(); err != nil {
			return nil, err
		}
	}
	tok := b[d.i:i]
	d.i = i
	return tok, nil
}

// str consumes a string and returns its token, quotes included; raw reports
// an escape or a byte ≥ 0x80 in it, which only unquote decodes.
func (d *decoder) str() (tok []byte, raw bool, err error) {
	b := d.b
	for i := d.i + 1; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			tok = b[d.i : i+1]
			d.i = i + 1
			return tok, raw, nil
		case c == '\\':
			raw = true
			if i+1 == len(b) {
				return nil, false, io.ErrUnexpectedEOF
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k == len(b) {
						return nil, false, io.ErrUnexpectedEOF
					}
					if !isHex(b[k]) {
						d.i = k
						return nil, false, d.syntax("invalid character in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				d.i = i + 1
				return nil, false, d.syntax("invalid character in string escape code")
			}
		case c < ' ':
			d.i = i
			return nil, false, d.syntax("invalid control character in string literal")
		case c >= 0x80:
			raw = true
			i++
		default:
			i++
		}
	}
	return nil, false, io.ErrUnexpectedEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// open consumes the '{' or '[' at d.i, whose closing byte is close, and
// reports whether a member or element follows; a member's key is next.
func (d *decoder) open(close byte) (bool, error) {
	d.i++
	if d.depth++; d.depth > maxDepth {
		return false, d.syntax("exceeded max depth")
	}
	c, err := d.next()
	switch {
	case err != nil:
		return false, err
	case c == close:
		d.i++
		d.depth--
		return false, nil
	case close == '}' && c != '"':
		return false, d.badChar(c, "looking for beginning of object key string")
	}
	return true, nil
}

// more consumes what follows a member or element: a comma, reporting that
// another one follows, or the closing byte.
func (d *decoder) more(close byte) (bool, error) {
	c, err := d.next()
	switch {
	case err != nil:
		return false, err
	case c == close:
		d.i++
		d.depth--
		return false, nil
	case c != ',' && close == '}':
		return false, d.badChar(c, "after object key:value pair")
	case c != ',':
		return false, d.badChar(c, "after array element")
	}
	d.i++
	if close == '}' {
		if c, err := d.next(); err != nil {
			return false, err
		} else if c != '"' {
			return false, d.badChar(c, "looking for beginning of object key string")
		}
	}
	return true, nil
}

// key consumes a member's key and the colon after it, and returns the key
// unquoted.
func (d *decoder) key() ([]byte, error) {
	tok, raw, err := d.str()
	if err == nil {
		err = d.colon()
	}
	if err != nil {
		return nil, err
	}
	if raw {
		s, err := unquote(tok)
		return []byte(s), err
	}
	return tok[1 : len(tok)-1], nil
}

func (d *decoder) colon() error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c != ':' {
		return d.badChar(c, "after object key")
	}
	d.i++
	return nil
}

// skip consumes one value of any shape — an unknown key's — checking that
// it is well formed. It keeps its own stack of open containers instead of
// recursing, so the depth limit, not the goroutine stack, bounds nesting.
func (d *decoder) skip() error {
	var buf [32]byte
	open := buf[:0] // the closing byte of each container skip opened
	for {
		c, err := d.next()
		if err != nil {
			return err
		}
		switch {
		case c == '{' || c == '[':
			close := byte('}')
			if c == '[' {
				close = ']'
			}
			more, err := d.open(close)
			if err != nil {
				return err
			}
			if more {
				open = append(open, close)
				if close == '}' {
					if _, _, err := d.str(); err != nil {
						return err
					}
					if err := d.colon(); err != nil {
						return err
					}
				}
				continue
			}
		case c == '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case c == 't':
			err = d.literal("true")
		case c == 'f':
			err = d.literal("false")
		case c == 'n':
			err = d.literal("null")
		case c == '-' || '0' <= c && c <= '9':
			_, err = d.number()
		default:
			err = d.badChar(c, "looking for beginning of value")
		}
		if err != nil {
			return err
		}
		// A value ended: close the containers it ended, and stop at the
		// next member or element, or when skip's own value has ended.
		for len(open) > 0 {
			close := open[len(open)-1]
			more, err := d.more(close)
			if err != nil {
				return err
			}
			if more {
				if close == '}' {
					if _, _, err := d.str(); err != nil {
						return err
					}
					if err := d.colon(); err != nil {
						return err
					}
				}
				break
			}
			open = open[:len(open)-1]
		}
		if len(open) == 0 {
			return nil
		}
	}
}
