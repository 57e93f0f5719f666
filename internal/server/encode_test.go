package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"classminer"
)

// referenceJSON is what the search endpoints sent before their replies were
// encoded by hand: encoding/json through an Encoder indenting by two spaces.
func referenceJSON(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// batchSearchResponse is the /v1/search/batch reply's shape, for the reference
// encoder and for tests that decode one; the server assembles the reply from
// encoded single-search bodies (appendBatchReply) and has no use for the type.
type batchSearchResponse struct {
	Results []searchResponse `json:"results"`
}

var (
	awkwardFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, 1e-6, 1e-7, -1e-7, 9.999999e-7,
		1e20, 1e21, 999999999999999900000, 1.5e300, -2.5e-300, 1e-9, 1e-10, 1e100, 1e-100,
		5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, // denormals, smallest normal
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Pi, 1.0 / 3.0, 4503599627370497,
	}
	awkwardStrings = []string{
		"", "plain", `say "hi"`, `back\slash`, "<script>", "a>b", "r&d", "line\u2028sep", "para\u2029sep",
		"bad\xffbyte", "cut\xc3", "\xe2\x80", "tab\there", "nl\nhere", "cr\rhere", "bell\x07", "nul\x00",
		"\b\f", "del\x7f", "unit\x1f", "café", "日本語", "emoji😀", "repl\ufffdaced", "/", "'", "medicine/other",
	}
)

// randomResponse draws a miss's reply (Cached false: the only kind the server
// encodes) whose every other field ranges over the values that make encoders
// disagree, including the nil-versus-empty slice distinction.
func randomResponse(rng *rand.Rand) searchResponse {
	str := func() string {
		if rng.Intn(4) == 0 {
			b := make([]byte, rng.Intn(12))
			rng.Read(b) // arbitrary bytes: mostly invalid UTF-8 and controls
			return string(b)
		}
		return awkwardStrings[rng.Intn(len(awkwardStrings))]
	}
	float := func() float64 {
		if rng.Intn(3) == 0 {
			for {
				if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
			}
		}
		return awkwardFloats[rng.Intn(len(awkwardFloats))]
	}
	resp := searchResponse{
		Stats: classminer.SearchStats{DistanceOps: rng.Intn(1e6), FloatOps: rng.Int(), Candidates: -rng.Intn(3),
			Exact: rng.Intn(41)},
		K: rng.Intn(101),
	}
	switch n := rng.Intn(6); n {
	case 0: // nil hits
	case 1:
		resp.Hits = []searchHit{}
	default:
		for i := 0; i < n; i++ {
			h := searchHit{Video: str(), Shot: rng.Intn(1000), Start: rng.Int(), End: -rng.Intn(10), Concept: str(), Dist: float()}
			switch p := rng.Intn(5); p {
			case 0: // nil path
			case 1:
				h.Path = []string{}
			default:
				for j := 0; j < p; j++ {
					h.Path = append(h.Path, str())
				}
			}
			resp.Hits = append(resp.Hits, h)
		}
	}
	return resp
}

// TestSearchEncoderMatchesEncodingJSON is the differential test that lets the
// hand-written encoder stand in for encoding/json: thousands of adversarial
// replies, single and nested in a batch, must come out byte for byte the
// same. A toolchain whose encoding/json escapes or formats differently fails
// here first.
func TestSearchEncoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, f := range awkwardFloats {
		for _, s := range awkwardStrings {
			resp := searchResponse{Hits: []searchHit{{Video: s, Concept: s, Path: []string{s}, Dist: f}}}
			checkSingle(t, &resp)
		}
	}
	for i := 0; i < 3000; i++ {
		resp := randomResponse(rng)
		checkSingle(t, &resp)
	}
	for i := 0; i < 300; i++ {
		batch := batchSearchResponse{Results: make([]searchResponse, 1+rng.Intn(5))}
		items := make([][]byte, len(batch.Results))
		for j := range batch.Results {
			batch.Results[j] = randomResponse(rng)
			var err error
			if items[j], err = appendSearchResponse(nil, &batch.Results[j]); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 { // an item the cache served
				batch.Results[j].Cached = true
				items[j] = asCacheHit(items[j])
			}
		}
		want, err := referenceJSON(t, batch)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendBatchReply(nil, items); !bytes.Equal(got, want) {
			t.Fatalf("batch of %d differs\n--- got\n%s\n--- want\n%s", len(items), got, want)
		}
	}
}

func checkSingle(t *testing.T, resp *searchResponse) {
	t.Helper()
	want, err := referenceJSON(t, resp)
	if err != nil {
		t.Fatal(err)
	}
	// Appending after existing bytes must leave them alone: the batch path
	// encodes several replies into one buffer.
	got, err := appendSearchResponse([]byte("prefix"), resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
		t.Fatalf("reply differs for %+v\n--- got\n%s\n--- want\n%s", *resp, got, want)
	}
	// The reply a hit sends is the same value with Cached set.
	flipped := *resp
	flipped.Cached = true
	wantHit, _ := referenceJSON(t, flipped)
	if hit := asCacheHit(got[len("prefix"):]); !bytes.Equal(hit, wantHit) {
		t.Fatalf("asCacheHit differs\n--- got\n%s\n--- want\n%s", hit, wantHit)
	}
}

// TestBuildSearchResponseNeverNilHits: an answer with no hits must encode as
// `[]` whatever scratch the caller brought, as it did when every reply got a
// fresh slice.
func TestBuildSearchResponseNeverNilHits(t *testing.T) {
	for _, wire := range [][]searchHit{nil, {}, make([]searchHit, 3)} {
		resp := buildSearchResponse(wire, nil, classminer.SearchStats{}, 5)
		got, err := appendSearchResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Hits == nil || !bytes.Contains(got, []byte(`"hits": [],`)) {
			t.Errorf("wire %#v: Hits = %#v, reply %s", wire, resp.Hits, got)
		}
	}
}

// TestSearchEncoderRejectsNonFiniteDistances: like encoding/json, and with
// its message, since the 500 a client sees quotes it.
func TestSearchEncoderRejectsNonFiniteDistances(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		resp := searchResponse{Hits: []searchHit{{Dist: f}}}
		_, wantErr := referenceJSON(t, resp)
		_, err := appendSearchResponse(nil, &resp)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("dist %v: err = %v, encoding/json says %v", f, err, wantErr)
		}
	}
}
