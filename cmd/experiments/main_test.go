package main

import (
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// TestRunRejectsBadScale: eval.CorpusConfig and synth.CorpusScript read a
// scale <= 0 as 1, so -scale -1 used to run and print the full-size corpus.
// A scale that is not > 0 — NaN included — is now an error that names the
// flag, and no experiment runs.
func TestRunRejectsBadScale(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
		want  string
	}{
		{"0", 0, "-scale 0: want > 0"},
		{"-1", -1, "-scale -1: want > 0"},
		{"NaN", math.NaN(), "-scale NaN: want > 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var err error
			out := captureStdout(t, func() { err = run("fig5", c.scale, 2003) })
			if err == nil || err.Error() != c.want {
				t.Fatalf("run = %v, want %q", err, c.want)
			}
			if out != "" {
				t.Fatalf("a rejected run printed %q", out)
			}
		})
	}
}

// TestRunRejectsUnknownExperiment: an unknown id in the list fails before
// any experiment runs, the known ones before it included.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	var err error
	out := captureStdout(t, func() { err = run("fig5,fig99", 0.2, 2003) })
	if err == nil || !strings.Contains(err.Error(), `"fig99"`) {
		t.Fatalf("run = %v, want an error naming fig99", err)
	}
	if out != "" {
		t.Fatalf("a rejected run printed %q", out)
	}
}

// captureStdout runs f with os.Stdout sent to a file and returns what f
// printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = old }()
	f()
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
