package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"classminer/internal/featrow"
)

// rowLengths are the feature-row shapes the presence words care about: none,
// one bit, a word less one, a word, a word and one, and the mined 266.
var rowLengths = []int{0, 1, 63, 64, 65, 266}

// randomRow draws a row of n values the way mined rows look — mostly exact
// zeros — salted with the values a codec gets wrong: -0, subnormals, the
// largest and smallest magnitudes. dense fills every element.
func randomRow(rng *rand.Rand, n int, dense bool) []float64 {
	if n == 0 {
		if rng.Intn(2) == 0 {
			return nil
		}
		return []float64{}
	}
	row := make([]float64, n)
	for i := range row {
		switch r := rng.Intn(100); {
		case dense || r < 7:
			row[i] = rng.NormFloat64()
		case r < 8:
			row[i] = math.Copysign(0, -1)
		case r < 9:
			row[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(9))
		case r < 10:
			row[i] = []float64{math.MaxFloat64, -math.MaxFloat64, 1e-300, 0.1}[rng.Intn(4)]
		}
	}
	return row
}

func randomRefs(rng *rand.Rand, limit int) []int {
	switch n := rng.Intn(5); n {
	case 0:
		return nil
	case 1:
		return []int{}
	default:
		refs := make([]int, n-1)
		for i := range refs {
			refs[i] = rng.Intn(limit)
		}
		return refs
	}
}

// randomSaved draws a SavedResult whose references DecodeResult accepts
// (RepGroup aside, which it tolerates out of range and which is drawn out of
// range — -1, MaxInt — on purpose), unless broken asks for one it refuses.
func randomSaved(rng *rand.Rand, broken bool) *SavedResult {
	names := []string{"v", "laparoscopy-01", "été", "手術-第3回", "a b\t\"c\"\\", strings.Repeat("n", 300)}
	sr := &SavedResult{
		Version:     FormatVersion,
		VideoName:   names[rng.Intn(len(names))],
		FPS:         []float64{25, 29.97, 0, math.Copysign(0, -1), 1e-310}[rng.Intn(5)],
		TotalFrames: rng.Intn(1 << 20),
	}
	shots := 1 + rng.Intn(6)
	for i := 0; i < shots; i++ {
		sr.Shots = append(sr.Shots, SavedShot{
			Index: i, Start: i * 50, End: i*50 + 49, RepFrame: rng.Intn(1 << 30),
			Color:   randomRow(rng, rowLengths[rng.Intn(len(rowLengths))], rng.Intn(8) == 0),
			Texture: randomRow(rng, rowLengths[rng.Intn(len(rowLengths))], false),
		})
	}
	repGroup := func(groups int) int {
		return []int{-1, 0, rng.Intn(groups + 1), math.MaxInt, math.MinInt}[rng.Intn(5)]
	}
	for g, groups := 0, rng.Intn(4); g < groups; g++ {
		sr.Groups = append(sr.Groups, SavedGroup{
			Index: g, Kind: rng.Intn(3) - 1, Shots: randomRefs(rng, shots), RepShots: randomRefs(rng, shots),
		})
	}
	scene := func(i int) SavedScene {
		return SavedScene{Index: i, Groups: randomRefs(rng, max(1, len(sr.Groups))), RepGroup: repGroup(len(sr.Groups)), Event: rng.Intn(4)}
	}
	if len(sr.Groups) > 0 {
		for i, n := 0, rng.Intn(4); i < n; i++ {
			sr.Scenes = append(sr.Scenes, scene(i))
		}
		for i, n := 0, rng.Intn(2); i < n; i++ {
			sr.Discarded = append(sr.Discarded, scene(i))
		}
	}
	for i, n := 0, rng.Intn(3); i < n && len(sr.Scenes) > 0; i++ {
		sr.Clusters = append(sr.Clusters, SavedCluster{Index: i, Scenes: randomRefs(rng, len(sr.Scenes)), RepGroup: repGroup(len(sr.Groups))})
	}
	switch n := rng.Intn(5); n {
	case 0:
	case 1:
		sr.Events = map[int]int{}
	default:
		sr.Events = map[int]int{}
		for i := 0; i < 6*(n-1); i++ { // past the encoder's stack buffer of 16 at n = 4
			sr.Events[rng.Intn(200)-100] = rng.Intn(4)
		}
	}
	if broken {
		sr.Groups = append(sr.Groups, SavedGroup{Index: 99, Shots: []int{math.MaxInt}})
	}
	return sr
}

// denseEntry returns e with every shot's packed row unpacked (Dense).
func denseEntry(e SavedLibraryEntry) SavedLibraryEntry {
	if e.Result == nil || e.Result.Shots == nil {
		return e
	}
	r := *e.Result
	r.Shots = make([]SavedShot, len(e.Result.Shots))
	for i, s := range e.Result.Shots {
		r.Shots[i] = s.Dense()
	}
	e.Result = &r
	return e
}

// sameBits reports whether a decoded entry, its rows packed, and a dense one
// are the same value down to nil-ness and float bits — what DeepEqual says of
// the two dense forms, except that it tells -0 from 0 and would equate NaNs
// by payload.
func sameBits(t testing.TB, dec, b SavedLibraryEntry) {
	t.Helper()
	a := denseEntry(dec)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("decoded entry differs:\n got %+v\nwant %+v", a.Result, b.Result)
	}
	if a.Result == nil {
		return
	}
	if math.Float64bits(a.Result.FPS) != math.Float64bits(b.Result.FPS) {
		t.Fatalf("fps bits %x vs %x", math.Float64bits(a.Result.FPS), math.Float64bits(b.Result.FPS))
	}
	for i := range a.Result.Shots {
		for r, rows := range [2][2][]float64{{a.Result.Shots[i].Color, b.Result.Shots[i].Color}, {a.Result.Shots[i].Texture, b.Result.Shots[i].Texture}} {
			for j := range rows[0] {
				if math.Float64bits(rows[0][j]) != math.Float64bits(rows[1][j]) {
					t.Fatalf("shot %d row %d element %d: bits %x vs %x", i, r, j, math.Float64bits(rows[0][j]), math.Float64bits(rows[1][j]))
				}
			}
		}
	}
}

// samePacked fails unless every shot of a decoded entry holds its feature
// packed, and only packed, exactly as featrow.Pack packs its dense form:
// the same half lengths, nil and empty halves apart, the same presence words
// and the same values, bit for bit.
func samePacked(t testing.TB, e SavedLibraryEntry) {
	t.Helper()
	if e.Result == nil {
		return
	}
	for i, s := range e.Result.Shots {
		if s.Row.IsZero() || s.Color != nil || s.Texture != nil {
			t.Fatalf("shot %d is not held packed, and only packed", i)
		}
		d := s.Dense()
		want := make([]featrow.Row, 1)
		featrow.Pack(want, func(int) ([]float64, []float64) { return d.Color, d.Texture })
		gc, gt := s.Row.Halves()
		wc, wt := want[0].Halves()
		for h, pair := range [2][2]featrow.Half{{gc, wc}, {gt, wt}} {
			got, want := pair[0], pair[1]
			if got.N != want.N || got.Nil != want.Nil || !slices.Equal(got.Words, want.Words) ||
				!slices.EqualFunc(got.Vals, want.Vals, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("shot %d half %d: decoded %+v, packed %+v", i, h, got, want)
			}
		}
	}
}

// arenaRuns fails unless each run of a decoded entry's shots whose rows
// have one shape — half lengths, and whether each half is nil — holds its
// rows in one arena of its own, and returns how many arenas there are.
func arenaRuns(t testing.TB, e SavedLibraryEntry) int {
	t.Helper()
	if e.Result == nil || len(e.Result.Shots) == 0 {
		return 0
	}
	type rowShape struct {
		nc, nt       int
		ncNil, ntNil bool
	}
	shape := func(r featrow.Row) rowShape {
		c, tx := r.Halves()
		return rowShape{c.N, tx.N, c.Nil, tx.Nil}
	}
	shots, runs := e.Result.Shots, 1
	for j := 1; j < len(shots); j++ {
		sameArena := shots[j].Row.Arena() == shots[j-1].Row.Arena()
		if sameShape := shape(shots[j].Row) == shape(shots[j-1].Row); sameArena != sameShape {
			t.Fatalf("shots %d and %d: same shape %v, same arena %v", j-1, j, sameShape, sameArena)
		}
		if !sameArena {
			runs++
		}
	}
	return runs
}

// TestEntryRoundTripExact: the binary entry is a second serialisation of the
// same model, so a value comes back as the value it was — nil and empty
// slices and maps apart, every float bit in place — and encodes to the same
// bytes again. Its rows come back packed, one arena per run of one shape.
func TestEntryRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	entries := []SavedLibraryEntry{
		{},
		{Subcluster: "medicine"},
		{Subcluster: "nursing", Result: &SavedResult{}},
		{Result: &SavedResult{Shots: []SavedShot{}, Groups: []SavedGroup{}, Scenes: []SavedScene{}, Discarded: []SavedScene{}, Clusters: []SavedCluster{}, Events: map[int]int{}}},
		{Result: &SavedResult{FPS: math.Float64frombits(0x7ff8_0000_dead_beef), Shots: []SavedShot{{
			Index: math.MinInt, Start: math.MaxInt, End: -1,
			Color: []float64{math.Inf(1), math.NaN(), math.Float64frombits(0xfff0_0000_0000_0001)},
		}}}},
		// Three runs of one row shape: two shots, then one whose texture is
		// nil rather than empty, then one of the first shape again.
		{Result: &SavedResult{Shots: []SavedShot{
			{Color: []float64{1, 0}, Texture: []float64{}}, {Color: []float64{0, 0}, Texture: []float64{}},
			{Color: []float64{0, 2}}, {Color: []float64{3, 0}, Texture: []float64{}},
		}}},
	}
	for i := 0; i < 300; i++ {
		entries = append(entries, SavedLibraryEntry{Subcluster: "medicine", Result: randomSaved(rng, i%10 == 0)})
	}
	for i, e := range entries {
		enc := AppendEntry(nil, &e)
		dec, err := DecodeEntry(enc)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if i == 4 { // DeepEqual has no opinion on NaN
			if again := AppendEntry(nil, &dec); !bytes.Equal(again, enc) {
				t.Fatal("NaN payloads or infinities did not survive")
			}
			continue
		}
		sameBits(t, dec, e)
		samePacked(t, dec)
		if runs := arenaRuns(t, dec); i == 5 && runs != 3 {
			t.Fatalf("the mixed-shape entry decoded into %d arenas, want 3", runs)
		}
		if again := AppendEntry([]byte("prefix"), &dec); !bytes.Equal(again[6:], enc) {
			t.Fatalf("entry %d re-encodes differently", i)
		}
	}
}

// TestEntryMatchesJSON is the equivalence the swap of formats rests on: a
// value that travels as binary and one that travels as the JSON it replaces
// come out of DecodeResult as the same mined result — shown by re-encoding
// both, to both formats — or are refused with the same error.
func TestEntryMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	accepted := 0
	for i := 0; i < 400; i++ {
		e := SavedLibraryEntry{Subcluster: "medicine", Result: randomSaved(rng, i%8 == 7)}
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON SavedLibraryEntry
		if err := json.Unmarshal(raw, &viaJSON); err != nil {
			t.Fatal(err)
		}
		viaBinary, err := DecodeEntry(AppendEntry(nil, &e))
		if err != nil {
			t.Fatal(err)
		}
		resJ, errJ := DecodeResult(viaJSON.Result)
		resB, errB := DecodeResult(viaBinary.Result)
		if errJ != nil || errB != nil {
			if fmt.Sprint(errJ) != fmt.Sprint(errB) {
				t.Fatalf("entry %d: JSON says %v, binary says %v", i, errJ, errB)
			}
			continue
		}
		accepted++
		savedJ, err := EncodeResult(resJ)
		if err != nil {
			t.Fatal(err)
		}
		savedB, err := EncodeResult(resB)
		if err != nil {
			t.Fatal(err)
		}
		entJ, entB := SavedLibraryEntry{"medicine", savedJ}, SavedLibraryEntry{"medicine", savedB}
		if !bytes.Equal(AppendEntry(nil, &entJ), AppendEntry(nil, &entB)) {
			t.Fatalf("entry %d: the two paths re-encode to different binary", i)
		}
		rawJ, _ := json.Marshal(entJ)
		rawB, _ := json.Marshal(entB)
		if !bytes.Equal(rawJ, rawB) {
			t.Fatalf("entry %d: the two paths re-encode to different JSON:\n%s\n%s", i, rawJ, rawB)
		}
	}
	if accepted < 300 {
		t.Fatalf("only %d of 400 random results were decodable; the generator drifted", accepted)
	}
}

// TestEntrySizes pins what zero suppression buys on the row shapes it was
// chosen for: a mined row (18 of 266 non-zero) is several times smaller than
// its JSON, a dense one pays the presence words and nothing else.
func TestEntrySizes(t *testing.T) {
	sparse, dense := benchEntry(false), benchEntry(true)
	for _, c := range []struct {
		name    string
		e       *SavedLibraryEntry
		atMost  int // bytes
		overRaw float64
	}{
		{"sparse", sparse, 6 << 10, 0.12},
		{"dense", dense, 56 << 10, 1.03},
	} {
		raw := 25 * 266 * 8
		got := len(AppendEntry(nil, c.e))
		js, _ := json.Marshal(c.e)
		t.Logf("%s: %d B binary, %d B JSON, %d B of raw float64", c.name, got, len(js), raw)
		if got > c.atMost || float64(got) > c.overRaw*float64(raw) {
			t.Fatalf("%s entry is %d B; want ≤ %d and ≤ %.2f× its %d raw bytes", c.name, got, c.atMost, c.overRaw, raw)
		}
	}
}

// TestDecodeEntryStrict: one value, one encoding. Every deviation the decoder
// could shrug off is refused, so nothing it accepts re-encodes differently.
func TestDecodeEntryStrict(t *testing.T) {
	good := AppendEntry(nil, &SavedLibraryEntry{Subcluster: "m", Result: &SavedResult{
		VideoName: "v", Shots: []SavedShot{{Color: []float64{0, 1.5, 0}}}, Events: map[int]int{1: 1, 2: 2},
	}})
	if _, err := DecodeEntry(good); err != nil {
		t.Fatal(err)
	}
	// Offsets into good, found by construction: format, "m", marker, version,
	// "v", fps, totalFrames, then the shot table.
	shots := 1 + 2 + 1 + 1 + 2 + 8 + 1
	patch := func(at int, with ...byte) []byte {
		out := bytes.Clone(good)
		copy(out[at:], with)
		return out
	}
	splice := func(at, drop int, with ...byte) []byte {
		return append(append(bytes.Clone(good[:at]), with...), good[at+drop:]...)
	}
	row := shots + 2 + 4 // count, values, four ints → the colour row: count, presence word, one value
	cases := map[string][]byte{
		"empty input":              nil,
		"unknown format":           patch(0, 2),
		"JSON":                     []byte(`{"subcluster":"m","result":null}`),
		"bad result marker":        patch(3, 2),
		"trailing byte":            append(bytes.Clone(good), 0),
		"truncated":                good[:len(good)-1],
		"non-minimal varint":       splice(1, 1, 0x81, 0x00),
		"string past the end":      patch(1, 0x7f),
		"shot count past the end":  patch(shots, 0x7f),
		"values past the end":      splice(shots+1, 1, 0xff, 0xff, 0xff, 0x7f),
		"values short of the rows": patch(shots+1, 2),
		"values beyond the rows":   patch(shots+1, 4),
		"presence bit past a row":  patch(row+1, 0b1010),
		"a written zero":           patch(row+9, 0, 0, 0, 0, 0, 0, 0, 0),
		"events out of order":      patch(len(good)-4, 4), // keys 2, 2
		"varint overflow":          splice(shots+2, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, in := range cases {
		if e, err := DecodeEntry(in); err == nil {
			t.Errorf("%s: decoded to %+v", name, e.Result)
		}
	}
	if got := good[row+1]; got != 0b010 {
		t.Fatalf("test offsets drifted: presence byte is %b", got)
	}
}

// allocatedBy reports the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBudget is what DecodeEntry may allocate for an input of n bytes: 64×
// for the densest thing an input can describe (an all-zero row costs a bit per
// float64), as much again for the slice and map headers around it, and a
// constant for the entry itself and an error.
func decodeBudget(n int) uint64 { return 128*uint64(n) + 4096 }

// TestDecodeEntryBoundsAllocation: a few bytes claiming to be millions of
// shots, values, references or events are refused before anything is
// allocated for them.
func TestDecodeEntryBoundsAllocation(t *testing.T) {
	head := []byte{entryFormat, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0} // "", result, version 1, "", fps 0, totalFrames 0
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f}                       // 2³² − 1
	for name, tail := range map[string][]byte{
		"shots":  huge,
		"values": append([]byte{2}, huge...),
		"row":    append([]byte{2, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, huge...),
		"groups": append([]byte{0, 0}, huge...),
		"events": append([]byte{0, 0, 0, 0, 0, 0}, huge...),
	} {
		in := append(bytes.Clone(head), tail...)
		var err error
		got := allocatedBy(func() { _, err = DecodeEntry(in) })
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if got > decodeBudget(len(in)) {
			t.Errorf("%s: a %d-byte input made the decoder allocate %d B", name, len(in), got)
		}
	}
	// The bound is met with equality by an honest input: all-zero rows.
	zeros := AppendEntry(nil, &SavedLibraryEntry{Result: &SavedResult{Shots: []SavedShot{{Color: make([]float64, 1<<16)}}}})
	if got := allocatedBy(func() { DecodeEntry(zeros) }); got > decodeBudget(len(zeros)) {
		t.Fatalf("an all-zero row of %d encoded bytes allocated %d B, budget %d", len(zeros), got, decodeBudget(len(zeros)))
	}
}

// FuzzDecodeEntry holds the decoder to its four promises on arbitrary bytes:
// it never panics, it never allocates more than decodeBudget of its input,
// every row it accepts is what featrow.Pack makes of the row's dense form,
// and whatever it accepts re-encodes to exactly the bytes it was given.
func FuzzDecodeEntry(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	f.Add([]byte{})
	f.Add([]byte(`{"subcluster":"medicine","result":null}`))
	f.Add(AppendEntry(nil, &SavedLibraryEntry{}))
	f.Add(AppendEntry(nil, benchEntry(false))[:600])
	for i := 0; i < 6; i++ {
		f.Add(AppendEntry(nil, &SavedLibraryEntry{Subcluster: "medicine", Result: randomSaved(rng, false)}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e SavedLibraryEntry
		var err error
		if got := allocatedBy(func() { e, err = DecodeEntry(data) }); got > decodeBudget(len(data)) {
			t.Fatalf("a %d-byte input made the decoder allocate %d B", len(data), got)
		}
		if err != nil {
			return
		}
		samePacked(t, e)
		if again := AppendEntry(nil, &e); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x but re-encodes to %x", data, again)
		}
	})
}

// benchEntry is the entry the ingest-churn workload journals: 25 shots of 266
// dimensions (256 colour + 10 texture), ≈ 18 of them non-zero — or, dense,
// all of them.
func benchEntry(dense bool) *SavedLibraryEntry {
	rng := rand.New(rand.NewSource(7))
	sr := &SavedResult{Version: FormatVersion, VideoName: "churn-000123", FPS: 25, TotalFrames: 25 * 50}
	row := func(n, nonzero int) []float64 {
		v := make([]float64, n)
		for _, i := range rng.Perm(n)[:nonzero] {
			v[i] = rng.Float64()
		}
		return v
	}
	for g := 0; g < 5; g++ {
		sg := SavedGroup{Index: g, RepShots: []int{g * 5}}
		for s := g * 5; s < g*5+5; s++ {
			shot := SavedShot{Index: s, Start: s * 50, End: s*50 + 49, RepFrame: s*50 + 25, Color: row(256, 14), Texture: row(10, 4)}
			if dense {
				shot.Color, shot.Texture = row(256, 256), row(10, 10)
			}
			sr.Shots = append(sr.Shots, shot)
			sg.Shots = append(sg.Shots, s)
		}
		sr.Groups = append(sr.Groups, sg)
	}
	sr.Scenes = []SavedScene{{Index: 0, Groups: []int{0, 1}, RepGroup: 0, Event: 1}, {Index: 1, Groups: []int{2, 3, 4}, RepGroup: 2, Event: 2}}
	sr.Clusters = []SavedCluster{{Index: 0, Scenes: []int{0}, RepGroup: 0}, {Index: 1, Scenes: []int{1}, RepGroup: 2}}
	return &SavedLibraryEntry{Subcluster: "medicine", Result: sr}
}

// BenchmarkEntryCodec times the binary entry beside the JSON it replaces, on
// the journal's usual record (93 % zeros) and on a dense one: encode and
// decode of the serialisation alone — EncodeResult/DecodeResult are shared by
// both formats and timed by neither.
func BenchmarkEntryCodec(b *testing.B) {
	for _, shape := range []string{"sparse", "dense"} {
		e := benchEntry(shape == "dense")
		bin := AppendEntry(nil, e)
		js, err := json.Marshal(e)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape+"/binary/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(bin)), "B/entry")
			buf := make([]byte, 0, len(bin))
			for i := 0; i < b.N; i++ {
				buf = AppendEntry(buf[:0], e)
			}
		})
		b.Run(shape+"/binary/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeEntry(bin); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape+"/json/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(js)), "B/entry")
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(e); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(shape+"/json/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out SavedLibraryEntry
				if err := json.Unmarshal(js, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
