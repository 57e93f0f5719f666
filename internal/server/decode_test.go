package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"classminer/internal/store"
	"classminer/internal/wal"
)

// poolShapedBody is a POST /v1/videos body shaped like the benchmark's
// write pool (cmd/loadgen/corpus.go): 25 shots of 256 colour and 10 texture
// dimensions with ≈ 18 non-zero values between them, in groups of five and
// scenes of two groups, one cluster per scene, no events, the name at the
// top level, marshalled by encoding/json.
func poolShapedBody(tb testing.TB, seed int64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	const shots, frames = 25, 40
	sparse := func(dims, nonZero int) []float64 {
		row := make([]float64, dims)
		for k := 0; k < nonZero; k++ {
			row[rng.Intn(dims)] = rng.Float64() * (1 + 0.3*rng.NormFloat64())
		}
		return row
	}
	sr := &store.SavedResult{Version: store.FormatVersion, FPS: 25, TotalFrames: shots * frames}
	for g := 0; g*5 < shots; g++ {
		sg := store.SavedGroup{Index: g, RepShots: []int{g * 5}}
		for s := g * 5; s < shots && s < (g+1)*5; s++ {
			sg.Shots = append(sg.Shots, s)
		}
		sr.Groups = append(sr.Groups, sg)
	}
	for sc := 0; sc*2 < len(sr.Groups); sc++ {
		ss := store.SavedScene{Index: sc, RepGroup: sc * 2, Event: 1 + sc%3}
		for g := sc * 2; g < len(sr.Groups) && g < (sc+1)*2; g++ {
			ss.Groups = append(ss.Groups, g)
			for _, s := range sr.Groups[g].Shots {
				sr.Shots = append(sr.Shots, store.SavedShot{
					Index: s, Start: s * frames, End: (s + 1) * frames, RepFrame: s*frames + 9,
					Color: sparse(256, 10), Texture: sparse(10, 8),
				})
			}
		}
		sr.Scenes = append(sr.Scenes, ss)
		sr.Clusters = append(sr.Clusters, store.SavedCluster{Index: sc, Scenes: []int{sc}, RepGroup: sc * 2})
	}
	body, err := json.Marshal(struct {
		Subcluster string             `json:"subcluster"`
		Name       string             `json:"name"`
		Saved      *store.SavedResult `json:"saved"`
	}{"medicine", fmt.Sprintf("churn-%d", seed), sr})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// sameBits reports whether a and b hold the same value: reflect.DeepEqual,
// except that floats compare by their bits, so -0 and 0 differ.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !sameBits(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic(fmt.Sprintf("sameBits: unhandled kind %s", a.Kind()))
}

// walRecord is the register record a durable library journals for the
// video req carries: classminer's appendEntryRecord (the record head, then
// AppendResultEntry of the result, which writes a packed row as it is)
// applied to what handleIngest makes of req.Saved.
func walRecord(req *ingestRequest) ([]byte, error) {
	res, err := store.DecodeResult(req.Saved)
	if err != nil {
		return nil, err
	}
	res.Video.Name = "v"
	rec, err := wal.AppendRecordHead(nil, wal.RecordRegister, "v")
	if err != nil {
		return nil, err
	}
	return store.AppendResultEntry(rec, req.Subcluster, res)
}

// decodeIngestDense is decodeIngest with every row it packed unpacked again
// (store.SavedShot.Dense): the value encoding/json makes of the same body.
func decodeIngestDense(body []byte, req *ingestRequest) error {
	err := decodeIngest(body, req)
	if err == nil && req.Saved != nil {
		for i := range req.Saved.Shots {
			req.Saved.Shots[i] = req.Saved.Shots[i].Dense()
		}
	}
	return err
}

// checkDecodeValue decodes body into a T by hand, with decode, and with
// encoding/json, and fails unless both accept or both reject it — agreeing,
// when they reject, on whether the input ran out, which is what makes a cut
// body 413 — and, where they accept, agree on the value float bit for float
// bit. It returns the two values, nil when both rejected the body.
func checkDecodeValue[T any](t testing.TB, body []byte, decode func([]byte, *T) error) (got, want *T) {
	t.Helper()
	got, want = new(T), new(T)
	gerr := decode(body, got)
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
	if (gerr == nil) != (werr == nil) || endedEarly(gerr) != endedEarly(werr) {
		t.Fatalf("body %.200q into %T: hand decoder err = %v, encoding/json err = %v", body, *got, gerr, werr)
	}
	if gerr != nil {
		return nil, nil
	}
	if !reflect.DeepEqual(*got, *want) || !sameBits(reflect.ValueOf(*got), reflect.ValueOf(*want)) {
		t.Fatalf("body %.200q:\nhand          %+v\nencoding/json %+v", body, *got, *want)
	}
	return got, want
}

// checkDecode holds decodeIngest to encoding/json (checkDecodeValue, on the
// rows' dense form) and, where both accept the body, to the same binary entry
// and WAL record: every row comes packed, and the journal writes it as it is
// in the bytes it writes for encoding/json's dense row.
func checkDecode(t testing.TB, body []byte) {
	t.Helper()
	_, want := checkDecodeValue(t, body, decodeIngestDense)
	if want == nil || want.Saved == nil {
		return
	}
	got := new(ingestRequest)
	if err := decodeIngest(body, got); err != nil {
		t.Fatal(err)
	}
	for i, sh := range got.Saved.Shots {
		if sh.Row.IsZero() || sh.Color != nil || sh.Texture != nil {
			t.Fatalf("body %.200q: shot %d is not held packed, and only packed", body, i)
		}
	}
	entry := func(r *ingestRequest) []byte {
		return store.AppendEntry(nil, &store.SavedLibraryEntry{Subcluster: r.Subcluster, Result: r.Saved})
	}
	if !bytes.Equal(entry(got), entry(want)) {
		t.Fatalf("body %.200q: binary entries differ", body)
	}
	grec, gerr := walRecord(got)
	wrec, werr := walRecord(want)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(grec, wrec) {
		t.Fatalf("body %.200q: WAL records differ (errors %v / %v)", body, gerr, werr)
	}
}

// decodeCases are bodies where a hand decoder is likely to part from
// encoding/json.
var decodeCases = []string{
	// Envelope, whitespace, what follows the value, top-level null.
	`{"subcluster":"medicine","saved":{"fps":0.25,"version":7},"name":"n","replace":true}`,
	" \t\r\n{\"subcluster\":\"a\"} \n",
	`{"subcluster":"a"} trailing garbage`,
	`{"subcluster":"a"}}`,
	`{}`,
	`null`,
	` null `,
	`nullx`,
	``,
	" \n\t ",
	`[]`,
	`"x"`,
	`7`,
	`true`,
	`{"subcluster":"a"`,
	`{"subcluster":`,
	`{"subcluster"`,
	`{"`,
	`{`,
	`nu`,
	`nul!`,
	// Keys: unknown at any depth, folded, escaped, repeated. The retired
	// corpus form's keys are unknown ones now.
	`{"subcluster":"medicine","corpus":"laparoscopy","scale":0.25,"seed":7,"name":"n","replace":true}`,
	`{"x":{"a":[1,{"b":null},"\u00e9",true,false,-1.5e3]},"subcluster":"a"}`,
	`{"SUBCLUSTER":"a"}`,
	`{"ſubcluster":"a"}`,
	`{"\u017fubcluster":"a"}`,
	`{"sub\u0063luster":"a"}`,
	`{"subcluster":"a","SUBCLUSTER":"b"}`,
	`{"SUBCLUSTER":"b","subcluster":"a"}`,
	`{"Saved":{"Shots":[{"COLOR":[1],"TeXtUrE":[2]}]}}`,
	`{"saved":{"groups":[{"\u212aind":3,"REPSHOTS":[1]}]}}`,
	`{"saved":{"videoName":"x","VideoName":"y"}}`,
	`{"saved":{"shots":[{"index":1,"index":2}]}}`,
	`{"saved":{"sh\u006fts":[{}]}}`,
	`{"saved":{"videoName":"a","fps":2},"saved":{"fps":3}}`,
	`{"saved":{"fps":2},"saved":null,"saved":{"version":1}}`,
	`{"saved":{"fps":1},"saved":5}`,
	// Repeated slices are decoded into in place, past the length when the
	// capacity reaches.
	`{"saved":{"shots":[{"index":1,"color":[1,2,3]},{"index":2,"texture":[4]}],"shots":[{"start":5}],"shots":[null,null]}}`,
	`{"saved":{"shots":[{"color":[1,2,3],"color":[9],"color":[null,null,null,null]}]}}`,
	`{"saved":{"shots":[{"color":[1,2],"color":[],"color":[null]}]}}`,
	`{"saved":{"groups":[{"shots":[1,2,3]}],"groups":[{"shots":[7]}],"groups":[{"shots":[null,null,null]},null]}}`,
	`{"saved":{"scenes":[{"groups":[1]}],"discarded":[{"groups":[2],"event":3}],"clusters":[{"scenes":[0],"repGroup":-1}]}}`,
	// null, [] and {}.
	`{"saved":{"shots":[{"color":[]}]}}`,
	`{"saved":{"shots":[{"color":null,"texture":[null,0]}]}}`,
	`{"saved":{"shots":[]}}`,
	`{"saved":{"shots":null}}`,
	`{"saved":{"shots":[{}],"shots":null}}`,
	`{"saved":{"shots":[{"color":[1],"color":null,"texture":[],"texture":null}]}}`,
	`{"saved":{"groups":[{"shots":[1],"shots":null,"repShots":[],"repShots":null}]}}`,
	`{"saved":{"shots":[null]}}`,
	`{"saved":null}`,
	`{"subcluster":null,"name":null,"replace":null,"saved":{"version":null,"fps":null}}`,
	`{"saved":{"events":{}}}`,
	`{"saved":{"events":null}}`,
	`{"saved":{"events":{"1":2},"events":null}}`,
	`{"saved":{"events":{"1":2}},"saved":{"events":{"3":4}}}`,
	`{"saved":{"events":{"1":null}}}`,
	// Map keys go through strconv.ParseInt.
	`{"saved":{"events":{"+5":1,"-0":2,"007":3,"\u0031":4}}}`,
	`{"saved":{"events":{"1.5":1}}}`,
	`{"saved":{"events":{"0x10":1}}}`,
	`{"saved":{"events":{"1_0":1}}}`,
	`{"saved":{"events":{"x":1}}}`,
	`{"saved":{"events":{" 1":1}}}`,
	`{"saved":{"events":{"99999999999999999999":1}}}`,
	`{"saved":{"events":{"1":"2"}}}`,
	`{"saved":{"events":[]}}`,
	// Floats: the JSON grammar first, then strconv, signs and range.
	`{"saved":{"shots":[{"color":[0,-0,0.0,-0.0,1e-400,-1e-400,5e-324,1.7976931348623157e308,0e0,0E+0,-0e-0,1E2,0.1,123456789012345678901234567890]}]}}`,
	`{"saved":{"fps":-0}}`,
	`{"saved":{"fps":1e400}}`,
	`{"saved":{"fps":-1e400}}`,
	`{"saved":{"shots":[{"color":[1e400]}]}}`,
	`{"saved":{"shots":[{"color":[+1]}]}}`,
	`{"saved":{"shots":[{"color":[.5]}]}}`,
	`{"saved":{"shots":[{"color":[01]}]}}`,
	`{"saved":{"shots":[{"color":[1.]}]}}`,
	`{"saved":{"shots":[{"color":[1.e5]}]}}`,
	`{"saved":{"shots":[{"color":[1e]}]}}`,
	`{"saved":{"shots":[{"color":[1e+]}]}}`,
	`{"saved":{"shots":[{"color":[0x10]}]}}`,
	`{"saved":{"shots":[{"color":[inf]}]}}`,
	`{"saved":{"shots":[{"color":[NaN]}]}}`,
	`{"saved":{"shots":[{"color":[-]}]}}`,
	`{"saved":{"shots":[{"color":[--1]}]}}`,
	`{"saved":{"shots":[{"color":[0 , 0 ,0]}]}}`,
	`{"saved":{"shots":[{"color":[0,0`,
	`{"saved":{"shots":[{"color":[0,`,
	`{"saved":{"shots":[{"color":[0,]}]}}`,
	`{"saved":{"shots":[{"color":[,0]}]}}`,
	// Ints take no fraction or exponent, and must fit.
	`{"saved":{"version":1.0}}`,
	`{"saved":{"version":1e2}}`,
	`{"saved":{"version":-0}}`,
	`{"saved":{"version":9223372036854775807}}`,
	`{"saved":{"version":9223372036854775808}}`,
	`{"saved":{"version":-9223372036854775808}}`,
	`{"saved":{"version":-9223372036854775809}}`,
	`{"saved":{"version":-7}}`,
	`{"saved":{"version":7.5}}`,
	// Values of the wrong JSON type.
	`{"subcluster":1}`,
	`{"subcluster":["a"]}`,
	`{"replace":"true"}`,
	`{"replace":1}`,
	`{"replace":false}`,
	`{"saved":[]}`,
	`{"saved":"x"}`,
	`{"saved":true}`,
	`{"saved":{"shots":{}}}`,
	`{"saved":{"shots":[1]}}`,
	`{"saved":{"shots":[[]]}}`,
	`{"saved":{"shots":[{"color":{}}]}}`,
	`{"saved":{"shots":[{"color":["1"]}]}}`,
	`{"saved":{"shots":[{"color":[true]}]}}`,
	`{"saved":{"shots":[{"color":[[1]]}]}}`,
	`{"saved":{"groups":[{"shots":[1.5]}]}}`,
	`{"subcluster":1,"x":[}`,
	`{"subcluster":1,"name":"abc`,
	`{"saved":{"version":1.5,"shots":[{"color":[0,`,
	// Syntax, also inside values nobody reads.
	`{"x":[1,2,]}`,
	`{"x":{"a":1,}}`,
	`{"x":{"a"1}}`,
	`{"x":{1:2}}`,
	"{\"x\":\"\x00\"}",
	"{\"x\":\"\x01\"}",
	"{\"x\":\"\x1f\"}",
	"{\"x\":\"\t\"}",
	`{"x":"\q"}`,
	`{"x":"\u12"}`,
	`{"x":"\u12G4"}`,
	`{"x":"\u123G"}`,
	`{"x":"ꯍꯍ"}`,
	`{"x":tru}`,
	`{"x":nul}`,
	`{"x":falsey}`,
	`{"x":"abc`,
	`{"a" "b"}`,
	`{"a":1 "b":2}`,
	`{,}`,
	`{"x":[1}}`,
	`{"x":{"a":1]}`,
	`{"x":[}`,
	`{"x":{]}`,
	`{"saved":{"shots":[{"color":[0}]}]}}`,
	`{"saved":{"shots":[{"index":1]}}}`,
	`{"subcluster":"a"]`,
	// Strings: escapes, surrogates, invalid UTF-8, DEL.
	`{"subcluster":"caf\u00e9"}`,
	`{"subcluster":"\ud83d\ude00"}`,
	`{"subcluster":"\ud83d"}`,
	`{"subcluster":"\ude00\ud83d x"}`,
	"{\"subcluster\":\"\xff\xfe\"}",
	"{\"subcluster\":\"\xc3\"}",
	"{\"subcluster\":\"\x7f\"}",
	`{"subcluster":"a\"b\\c\/d\b\f\n\r\t"}`,
	`{"subcluster":"é"}`,
	`{"name":"\u003cscript\u003e"}`,
	// Nesting: encoding/json's limit is 10 000 open containers.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
	`{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
	strings.Repeat("[", 100000),
}

// checkDecodeSearch holds decodeSearch and decodeBatch to encoding/json
// (checkDecodeValue) on one body.
func checkDecodeSearch(t testing.TB, body []byte) {
	t.Helper()
	checkDecodeValue(t, body, decodeSearch)
	checkDecodeValue(t, body, decodeBatch)
}

// searchDecodeCases are search and batch bodies where a hand decoder is
// likely to part from encoding/json; the ingest table runs through the
// search decoders too.
var searchDecodeCases = []string{
	`{"video":"laparoscopy","shot":0,"k":10}`,
	`{"query":[0.5,0,1e-3,-0,-0.0,5e-324,1e400],"k":3}`,
	`{"query":[0.5,0,1e-3,-0,5e-324],"k":3}`,
	`{"query":[]}`,
	`{"query":null}`,
	`{"query":[1],"query":null}`,
	`{"query":null,"query":[2,3]}`,
	`{"query":[1,2,3],"query":[4]}`,
	`{"query":[1,2],"query":[],"query":[null]}`,
	`{"query":[null,1]}`,
	`{"QUERY":[1],"Video":"x","SHOT":2,"K":4}`,
	`{"video":null,"shot":null,"k":null}`,
	`{"video":"a","video":"b","shot":1,"shot":-2}`,
	`{"shot":1.5}`,
	`{"shot":1e2}`,
	`{"shot":"1"}`,
	`{"k":9223372036854775808}`,
	`{"video":7}`,
	`{"query":{}}`,
	`{"query":[1,"2"]}`,
	`{"query":[[1]]}`,
	`{"query":[1,2`,
	`{"query":[1,`,
	`{"video":"lap`,
	`{"video":"laparoscopy","shot":0,"k":3} trailing`,
	`{"items":[{"video":"a","shot":1},{"query":[1,2]}],"k":5}`,
	`{"items":[]}`,
	`{"items":null}`,
	`{"items":[null]}`,
	`{"items":[{}],"items":null}`,
	`{"items":[{"query":[1,2]}],"items":[{"k":2}]}`,
	`{"items":[{"query":[1]},{"query":[2]}],"items":[{}]}`,
	`{"items":[{"query":[1,2]}],"items":[{"query":[3]}]}`,
	`{"items":{}}`,
	`{"items":[1]}`,
	`{"items":[{"query":7}]}`,
	`{"ITEMS":[{"Query":[3]}],"k":2,"K":3}`,
	`{"items":[{"k":1,"shot":2}]}`,
	`{"items":[{"query":[1,2]},{"query":[3`,
	`{"items":[{"video":"a"}`,
}

// TestDecodeSearchMatchesEncodingJSON holds decodeSearch and decodeBatch to
// encoding/json on the search table, the ingest table and every prefix of a
// batch body.
func TestDecodeSearchMatchesEncodingJSON(t *testing.T) {
	for _, body := range searchDecodeCases {
		checkDecodeSearch(t, []byte(body))
	}
	for _, body := range decodeCases {
		checkDecodeSearch(t, []byte(body))
	}
	body := []byte(`{"items":[{"video":"laparoscopy","shot":3},{"query":[0.25,0,1e-7,-3.5e12,0,0,1]},{"video":"b\u00e9","shot":0}],"k":7}`)
	for cut := 0; cut <= len(body); cut++ {
		checkDecodeSearch(t, body[:cut])
	}
}

// TestDecodeSearchKeepsQueriesApart: decoded queries own their memory — no
// spare capacity, nothing shared with the body or the decoder's scratch.
func TestDecodeSearchKeepsQueriesApart(t *testing.T) {
	var batch batchSearchRequest
	body := []byte(`{"items":[{"query":[1,2]},{"query":[3]},{"query":[4,5,6]}],"items":[{},{}]}`)
	if err := decodeBatch(body, &batch); err != nil {
		t.Fatal(err)
	}
	for i, it := range batch.Items {
		if cap(it.Query) != len(it.Query) {
			t.Fatalf("item %d: query has spare capacity", i)
		}
	}
	if spare := batch.Items[len(batch.Items):cap(batch.Items)]; len(spare) > 0 && spare[0].Query != nil {
		t.Fatalf("an item past the length still holds query %v", spare[0].Query)
	}
	var req searchRequest
	if err := decodeSearch([]byte(`{"query":[7,8,9]}`), &req); err != nil {
		t.Fatal(err)
	}
	// The next decode reuses the pooled scratch; the query must not move.
	var other searchRequest
	if err := decodeSearch([]byte(`{"query":[0,0,0]}`), &other); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Query, []float64{7, 8, 9}) {
		t.Fatalf("a decoded query changed under the next decode: %v", req.Query)
	}
}

// TestDecodeIngestMatchesEncodingJSON holds decodeIngest to encoding/json on
// the adversarial table and on write-pool bodies.
func TestDecodeIngestMatchesEncodingJSON(t *testing.T) {
	for _, body := range decodeCases {
		checkDecode(t, []byte(body))
	}
	for seed := int64(1); seed <= 8; seed++ {
		body := poolShapedBody(t, seed)
		checkDecode(t, body)
		// Every prefix of a real body is the body cut short.
		for cut := 0; cut < len(body); cut += 997 {
			checkDecode(t, body[:cut])
		}
	}
}

// TestDecodeIngestKeepsRowsApart: the rows come packed into one arena that
// holds exactly them, and nothing the result holds aliases the body or the
// decoder's pooled scratch, which the next body reuses.
func TestDecodeIngestKeepsRowsApart(t *testing.T) {
	body := poolShapedBody(t, 3)
	var req ingestRequest
	if err := decodeIngest(body, &req); err != nil {
		t.Fatal(err)
	}
	shots := req.Saved.Shots
	arena, held := shots[0].Row.Arena(), 0
	dense := make([][]float64, len(shots))
	for i := range shots {
		if shots[i].Row.Arena() != arena {
			t.Fatalf("shot %d: the rows span arenas", i)
		}
		held += shots[i].Row.Bytes()
		dense[i] = shots[i].Row.AppendTo(nil)
	}
	// The last row's halves reach the end of the arena's words and values.
	if _, last := shots[len(shots)-1].Row.Halves(); held != arena.Bytes() ||
		cap(last.Words) != len(last.Words) || cap(last.Vals) != len(last.Vals) {
		t.Fatalf("rows of %d B in an arena of %d B, or with spare capacity", held, arena.Bytes())
	}
	for i := range body {
		body[i] = 0
	}
	var next ingestRequest
	if err := decodeIngest(poolShapedBody(t, 4), &next); err != nil {
		t.Fatal(err)
	}
	for i := range shots {
		if got := shots[i].Row.AppendTo(nil); !sameBits(reflect.ValueOf(got), reflect.ValueOf(dense[i])) {
			t.Fatalf("shot %d: the row changed under a zeroed body and a second decode", i)
		}
	}
	if req.Subcluster != "medicine" || req.Name != "churn-3" {
		t.Fatalf("decoded strings alias the body: %q %q", req.Subcluster, req.Name)
	}
	// A repeated, shorter "shots" leaves decoded shots past the length; they
	// must not keep rows in the decoder's pooled scratch.
	req = ingestRequest{}
	if err := decodeIngest([]byte(`{"saved":{"shots":[{"color":[1]},{"color":[2]}],"shots":[{}]}}`), &req); err != nil {
		t.Fatal(err)
	}
	if spare := req.Saved.Shots[1:cap(req.Saved.Shots)]; spare[0].Color != nil || !spare[0].Row.IsZero() {
		t.Fatalf("a shot past the length still holds row %v", spare[0].Color)
	}
}

// TestDecodeIngestCoversEveryField fills every JSON field reachable from
// ingestRequest with a non-zero value, by reflection, and requires the hand
// decoder to bring every one of them back: a field added to the request or
// to a store.Saved* type fails here until decode.go reads it.
func TestDecodeIngestCoversEveryField(t *testing.T) {
	var want ingestRequest
	body := fillEveryField(t, reflect.ValueOf(&want).Elem())
	var got ingestRequest
	if err := decodeIngestDense(body, &got); err != nil {
		t.Fatal(err)
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("hand decoder dropped a field:\nbody %s\ngot  %+v\nwant %+v", body, got, want)
	}
	checkDecode(t, body)
}

// TestDecodeSearchCoversEveryField is TestDecodeIngestCoversEveryField for
// the batch body, whose items are search bodies.
func TestDecodeSearchCoversEveryField(t *testing.T) {
	var want batchSearchRequest
	body := fillEveryField(t, reflect.ValueOf(&want).Elem())
	var got batchSearchRequest
	if err := decodeBatch(body, &got); err != nil {
		t.Fatal(err)
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("hand decoder dropped a field:\nbody %s\ngot  %+v\nwant %+v", body, got, want)
	}
	checkDecodeSearch(t, body)
}

// fillEveryField sets every JSON field reachable from v to a non-zero value,
// by reflection, and returns v marshalled.
func fillEveryField(t *testing.T, v reflect.Value) []byte {
	t.Helper()
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
					fill(v.Field(i))
				}
			}
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Slice:
			s := reflect.MakeSlice(v.Type(), 2, 2)
			fill(s.Index(0))
			fill(s.Index(1))
			v.Set(s)
		case reflect.Map:
			m := reflect.MakeMap(v.Type())
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k)
			fill(e)
			m.SetMapIndex(k, e)
			v.Set(m)
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", n))
		case reflect.Int, reflect.Int32, reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.5)
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("no filler for a %s field; teach the test and decode.go about it", v.Type())
		}
	}
	fill(v)
	body, err := json.Marshal(v.Interface())
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func FuzzDecodeIngest(f *testing.F) {
	for _, body := range decodeCases {
		f.Add([]byte(body))
	}
	f.Add(poolShapedBody(f, 1))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

func FuzzDecodeSearch(f *testing.F) {
	for _, body := range searchDecodeCases {
		f.Add([]byte(body))
	}
	for _, body := range decodeCases[:8] {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeSearch(t, body)
	})
}

// BenchmarkDecodeIngest decodes one write-pool body by hand and, as the
// reference, with encoding/json the way the handler used to.
func BenchmarkDecodeIngest(b *testing.B) {
	body := poolShapedBody(b, 1)
	b.Run("hand", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req ingestRequest
			if err := decodeIngest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req ingestRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
