// Command loadgen is the repository's benchmark: it builds ./cmd/classminerd,
// generates a seeded corpus, boots the real daemon as a child process for
// each workload, drives it over HTTP from at most two client goroutines,
// checks that the answers are correct, and reports what a client saw (the
// end-to-end metrics) beside what each layer did (the per-layer metrics).
// README.md in this directory describes the workloads and every metric.
//
// Usage:
//
//	go run ./cmd/loadgen -seed 1 -out result.json      # all four workloads, both metric sets
//	go run ./cmd/loadgen -seed 1 -sets 2               # run everything twice and check the sets agree
//	go run ./cmd/loadgen diff a.json b.json            # compare two result files
//	go run ./cmd/loadgen --workload search-cached --seed 1 --seconds 18 --trace 0
//
// The last form is the driver contract of BENCHMARK.json: one workload, one
// JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// resultFile is the one schema every loadgen result is written in.
type resultFile struct {
	Schema        int         `json:"schema"`
	Env           environment `json:"env"`
	Seed          int64       `json:"seed"`
	Seconds       float64     `json:"measuredSeconds"`
	WarmupSeconds float64     `json:"warmupSeconds"`
	TracedSeconds float64     `json:"tracedSeconds"`
	Corpus        corpusInfo  `json:"corpus"`
	// Sets holds one entry per complete run of the benchmark (-sets N).
	Sets []resultSet `json:"sets"`
}

type corpusInfo struct {
	Videos        int `json:"videos"`
	ShotsPerVideo int `json:"shotsPerVideo"`
	Dims          int `json:"dims"`
	RealShots     int `json:"realShotsMined"`
	WritePool     int `json:"writePoolBodies"`
	BodyBytes     int `json:"meanIngestBodyBytes"`
}

// resultSet maps workload name to its result.
type resultSet map[string]*workloadResult

// children tracks the running daemon so that an interrupted loadgen leaves no
// process behind: the signal handler takes the lock, kills the child and
// exits while still holding it, so no other goroutine can start another.
var children struct {
	sync.Mutex
	live *daemon
	done bool // set once loadgen is exiting; no daemon may start after
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diffCommand(os.Args[2:], os.Stdout))
	}
	var (
		workload = flag.String("workload", "", "run only this workload and print the driver's one-line JSON result")
		seed     = flag.Int64("seed", 1, "seed for the corpus and every query sequence")
		seconds  = flag.Float64("seconds", 18, "length of one measured run (warm-up is a tenth of it, the traced run a third)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		out      = flag.String("out", "", "write the full result file here")
		sets     = flag.Int("sets", 1, "run the whole benchmark this many times; with 2 or more, check that the sets agree")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || *sets < 1 {
		fatalf("-seconds and -sets must be positive")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		children.Lock()
		children.done = true
		if children.live != nil {
			children.live.kill()
		}
		os.Exit(130)
	}()

	workDir := filepath.Join(".bench_build", "loadgen", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	code := 1
	defer func() {
		os.RemoveAll(workDir)
		os.Exit(code)
	}()
	cfg := &runConfig{seed: *seed, size: base10k, seconds: *seconds, setups: 1, workDir: workDir, log: os.Stderr}
	var err error
	if cfg.bin, err = buildDaemon(workDir); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return
	}
	if *workload != "" {
		code = driverRun(cfg, *workload, *trace == 1)
		return
	}
	code = fullRun(cfg, *sets, *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(2)
}

// timedCorpus generates the corpus and reports how long that took; it is the
// first part of every workload's setup_s.
func timedCorpus(cfg *runConfig) (*corpus, float64, error) {
	t0 := time.Now()
	co, err := generateCorpus(cfg.size)
	if err != nil {
		return nil, 0, fmt.Errorf("generating corpus: %w", err)
	}
	s := time.Since(t0).Seconds()
	cfg.logf("corpus: %d videos x %d shots (%d dims) from %d mined shots, %d write-pool bodies, in %.2fs",
		len(co.names), co.size.ShotsPerVideo, co.dim, co.realShots, len(co.pool), s)
	return co, s, nil
}

// driverSetups is how many times the untraced driver run sets the daemon up;
// setup_s reports the median. Two is what the driver's time cap leaves room
// for: a set-up with its warm-up costs about 5 s, the driver makes 22 runs per
// workload, and the time is better spent on the measured run.
const driverSetups = 2

// driverRun is the BENCHMARK.json contract: one workload, and as the last
// line of standard output one JSON object with the end-to-end metrics
// (traced unset) or the per-layer metrics (traced set).
func driverRun(cfg *runConfig, name string, traced bool) int {
	wl, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "loadgen: unknown workload %q\n", name)
		return 2
	}
	co, corpusS, err := timedCorpus(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	if !traced {
		cfg.setups = driverSetups
	}
	res, killed, err := runWorkload(cfg, co, corpusS, wl, traced)
	if err == nil && traced {
		if err = layerProbes(res.PerLayer, co, cfg.workDir); err == nil {
			err = recoverProbes(res.PerLayer, killed, wl.Shards)
		}
		res.PerLayer.fill(perLayer)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	for _, f := range res.Failures {
		cfg.logf("failed: %s", f)
	}
	metrics := res.EndToEnd
	if traced {
		metrics = res.PerLayer
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Ops, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	fmt.Println(string(line))
	return exitCode(res.Failed)
}

// exitCode is non-zero when any operation failed the correctness oracle.
func exitCode(failed int) int {
	if failed > 0 {
		return 1
	}
	return 0
}

// fullRun runs all four workloads with both metric sets, `sets` times over,
// prints every metric by name with its unit, and writes the result file.
func fullRun(cfg *runConfig, sets int, outPath string) int {
	co, corpusS, err := timedCorpus(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	var body int
	for _, b := range co.baseBodies {
		body += len(b)
	}
	file := resultFile{
		Schema: 1, Env: describeEnvironment(cfg.workDir), Seed: cfg.seed,
		Seconds: cfg.seconds, WarmupSeconds: cfg.seconds / 10, TracedSeconds: cfg.seconds / 3,
		Corpus: corpusInfo{
			Videos: len(co.names), ShotsPerVideo: co.size.ShotsPerVideo, Dims: co.dim,
			RealShots: co.realShots, WritePool: len(co.pool), BodyBytes: body / len(co.baseBodies),
		},
	}
	failed := 0
	for n := 0; n < sets; n++ {
		set, err := runSet(cfg, co, corpusS)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		file.Sets = append(file.Sets, set)
		for _, wl := range workloads {
			failed += set[wl.Name].Failed
		}
	}
	printResult(os.Stdout, &file)
	if outPath != "" {
		b, err := json.MarshalIndent(&file, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
	}
	code := 0
	if sets > 1 {
		fmt.Fprintf(os.Stdout, "\nagreement of set 1 and set 2 (same build, same seed):\n")
		a, b := file, file
		a.Sets, b.Sets = file.Sets[:1], file.Sets[1:2]
		if !printDiff(os.Stdout, &a, &b, true) {
			code = 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stdout, "\n%d operations FAILED the correctness oracle\n", failed)
		code = exitCode(failed)
	}
	return code
}

// runSet is one complete run of the benchmark.
func runSet(cfg *runConfig, co *corpus, corpusS float64) (resultSet, error) {
	set := resultSet{}
	probes := metricSet{}
	if err := layerProbes(probes, co, cfg.workDir); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for _, wl := range workloads {
		res, killed, err := runWorkload(cfg, co, corpusS, wl, true)
		if err != nil {
			return nil, err
		}
		for name, v := range probes {
			res.PerLayer[name] = v
		}
		if err := recoverProbes(res.PerLayer, killed, wl.Shards); err != nil {
			return nil, fmt.Errorf("%s: recovery probes: %w", wl.Name, err)
		}
		if err := os.RemoveAll(killed); err != nil {
			return nil, err
		}
		res.PerLayer.fill(perLayer)
		set[wl.Name] = res
	}
	return set, nil
}

// printResult prints every metric of the file's last set by name, with its
// unit, one block per workload.
func printResult(w io.Writer, f *resultFile) {
	fmt.Fprintf(w, "classminerd benchmark: seed %d, %.1fs measured + %.1fs warm-up per run, traced run %.1fs\n",
		f.Seed, f.Seconds, f.WarmupSeconds, f.TracedSeconds)
	fmt.Fprintf(w, "commit %s, %s, nproc %d, GOMAXPROCS %d (loadgen) / %d (daemon), %s, data dir on %s\n",
		f.Env.Commit, f.Env.GoVersion, f.Env.NumCPU, f.Env.GOMAXPROCS, f.Env.DaemonGOMAXPROCS, f.Env.CPUModel, f.Env.DataDirFS)
	fmt.Fprintf(w, "flush policy: %s\n%s\n", f.Env.FlushPolicy, f.Env.Durability)
	set := f.Sets[len(f.Sets)-1]
	for _, wl := range workloads {
		r := set[wl.Name]
		fmt.Fprintf(w, "\n== %s == ops %d, failed %d\n   why: %s\n", wl.Name, r.Ops, r.Failed, wl.Why)
		for _, fl := range r.Failures {
			fmt.Fprintf(w, "   FAILED: %s\n", fl)
		}
		fmt.Fprintf(w, "   samples: %v\n   end to end:\n", r.Samples)
		for _, d := range endToEnd {
			fmt.Fprintf(w, "     %-34s %14.4f %s\n", d.Name, r.EndToEnd[d.Name].Value, d.Unit)
		}
		fmt.Fprintf(w, "   per layer:\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "     %-34s %14.4f %s\n", d.Name, r.PerLayer[d.Name].Value, d.Unit)
		}
	}
}
