package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredNamesMatchBenchmarkJSON pins the tables loadgen emits from to
// the contract file the driver reads: its workloads are loadgen's, and the
// metrics, units, directions and bounds are the same, in the same order.
func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "cmd/loadgen" {
		t.Errorf("paths = %v, want [cmd/loadgen]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q has characters outside letters, digits, _ . -", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	// The driver runs the workloads BENCHMARK.json lists; loadgen's own full
	// run adds mixed-shards4, which the driver's time cap leaves no room for.
	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 {
		t.Errorf("BENCHMARK.json declares %d workloads, the contract wants 2 to 8", len(bf.Workloads))
	}
	for _, bw := range bf.Workloads {
		if w, ok := workloadByName(bw.Name); !ok || w.Why != bw.Why {
			t.Errorf("BENCHMARK.json workload %q (%q): loadgen has %q", bw.Name, bw.Why, w.Why)
		}
	}
	for _, w := range workloads {
		checkName("workload", w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}

	compare := func(kind string, declared []benchMetric, emitted []metricDef, bounded bool) {
		if len(declared) != len(emitted) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, loadgen emits %d", len(declared), kind, len(emitted))
		}
		for i, d := range emitted {
			checkName(kind, d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			b := declared[i]
			if b.Name != d.Name || b.Unit != d.Unit || b.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], loadgen has %s [%s, %s]",
					kind, i, b.Name, b.Unit, b.Better, d.Name, d.Unit, d.Better)
			}
			switch {
			case bounded && (b.Bound == nil || *b.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25] and equal in both places (loadgen %v)", d.Name, d.Bound)
			case !bounded && b.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd, true)
	compare("per_layer", bf.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
	var setup *metricDef
	for i := range endToEnd {
		if endToEnd[i].Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Error("the contract requires an end-to-end metric setup_s in s, lower is better")
	}
}
