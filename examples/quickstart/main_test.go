package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// quickstartSection is README.md's section that documents this example.
func quickstartSection(t *testing.T) string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "\n## Quickstart: library API\n"
	_, section, ok := strings.Cut(string(readme), heading)
	if !ok {
		t.Fatalf("README.md has no %q heading", strings.TrimSpace(heading))
	}
	section, _, _ = strings.Cut(section, "\n## ")
	return section
}

// fenced returns the body of the first block fenced as lang in section.
func fenced(t *testing.T, section, lang string) string {
	t.Helper()
	_, body, ok := strings.Cut(section, "\n```"+lang+"\n")
	if !ok {
		t.Fatalf("README.md's quickstart has no %s block", lang)
	}
	body, _, ok = strings.Cut(body, "\n```\n")
	if !ok {
		t.Fatalf("README.md's quickstart %s block is not closed", lang)
	}
	return body + "\n"
}

// TestQuickstartOutput holds README.md's quickstart to the example: its
// text block is exactly what run prints, and every line of its go block is
// a line of run.
func TestQuickstartOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	section := quickstartSection(t)
	if got := fenced(t, section, "text"); got != buf.String() {
		t.Errorf("README.md's quickstart output differs from what run prints:\n--- README\n%s--- run\n%s", got, buf.String())
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]bool{}
	for _, l := range strings.Split(string(src), "\n") {
		lines[strings.TrimSpace(l)] = true
	}
	for _, l := range strings.Split(fenced(t, section, "go"), "\n") {
		if l = strings.TrimSpace(l); l != "" && !lines[l] {
			t.Errorf("README.md's quickstart shows %q, which is not a line of main.go", l)
		}
	}
}
