package main

import (
	"io"
	"math"
	"runtime"
	"testing"
)

// TestSmokeAllWorkloads keeps the harness from rotting: it builds the real
// daemon, runs all four workloads with their traced pass and the probes at a
// 40-video corpus and 1 s runs, and requires every declared metric to be
// present and finite and no operation to fail the oracle. Numbers at this
// size mean nothing; that the pipeline produces them does.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon; skipped under -short")
	}
	if runtime.GOOS != "linux" {
		t.Skip("reads daemon CPU and memory from /proc")
	}
	dir := t.TempDir()
	bin, err := buildDaemon(dir)
	if err != nil {
		t.Fatal(err)
	}
	co := testCorpus(t)
	cfg := &runConfig{seed: 7, size: smokeSize, seconds: 1, setups: 1, workDir: dir, bin: bin, log: io.Discard}
	set, err := runSet(cfg, co, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		res := set[wl.Name]
		if res == nil {
			t.Fatalf("%s: no result", wl.Name)
		}
		if res.Failed != 0 || res.Ops == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wl.Name, res.Failed, res.Ops, res.Failures)
		}
		for _, defs := range []struct {
			kind string
			defs []metricDef
			got  metricSet
		}{{"end_to_end", endToEnd, res.EndToEnd}, {"per_layer", perLayer, res.PerLayer}} {
			if len(defs.got) != len(defs.defs) {
				t.Errorf("%s: %d %s metrics reported, %d declared", wl.Name, len(defs.got), defs.kind, len(defs.defs))
			}
			for _, d := range defs.defs {
				v, ok := defs.got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s is missing", wl.Name, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", wl.Name, d.Name, v.Value)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s in %q, declared %q", wl.Name, d.Name, v.Unit, d.Unit)
				case defs.kind == "end_to_end" && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.Name, d.Name, v.Value)
				}
			}
		}
	}
	// Each workload must load the layer it was chosen for and bypass the one
	// it was chosen against, even at this size.
	if r := set["search-cached"].PerLayer["cache.hit_ratio"].Value; r < 0.9 {
		t.Errorf("search-cached: cache hit ratio %.3f, want the hot set served from cache", r)
	}
	if n := set["search-cached"].PerLayer["wal.checkpoints"].Value + set["search-uncached"].PerLayer["index.incremental_inserts"].Value; n != 0 {
		t.Errorf("a search workload wrote to the library (%v checkpoints+inserts)", n)
	}
	if n := set["ingest-churn"].PerLayer["index.incremental_inserts"].Value; n == 0 {
		t.Error("ingest-churn: no incremental index inserts")
	}
	if n := set["ingest-churn"].PerLayer["wal.records_per_fsync"].Value; n < 1 {
		t.Errorf("ingest-churn: %v records per fsync", n)
	}
}
