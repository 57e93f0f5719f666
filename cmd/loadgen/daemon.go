package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchToken authenticates every request, so auth, admission and the ACL
// filter all run on the measured path.
const (
	benchToken = "bench"
	tokenFlag  = benchToken + "=dr.bench:clinician:surgeon"
	// adminToken reads /debug/traces; only the traced pass uses it.
	adminToken     = "bench-admin"
	adminTokenFlag = adminToken + "=bench.admin:admin"
)

// buildDaemon compiles cmd/classminerd from the checkout's source into dir
// (named by import path, so it works from any directory of the module).
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "classminerd")
	cmd := exec.Command("go", "build", "-o", bin, "classminer/cmd/classminerd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build classminer/cmd/classminerd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonConfig is what varies between boots; every other flag stays at the
// shipped default (so -fsync always, 4 MiB segments, checkpoints at 64 MiB or
// 10 000 records, compaction at 8 MiB dead).
type daemonConfig struct {
	bin     string
	dataDir string
	logPath string // stderr is appended here
	shards  int    // 0 leaves -shards unset
	traced  bool
}

// args is the exact daemon command line (after the binary) for addr.
func (c daemonConfig) args(addr string) []string {
	a := []string{
		"-addr", addr, "-data-dir", c.dataDir, "-skip-events",
		"-workers", "8", "-queue", "64", "-token", tokenFlag,
	}
	if c.shards > 0 {
		a = append(a, "-shards", strconv.Itoa(c.shards))
	}
	if c.traced {
		a = append(a, "-trace-sample", "1", "-trace-slow", "0", "-trace-ring", "4096",
			"-token", adminTokenFlag)
	}
	return a
}

// daemon is one running classminerd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	err    error // cmd.Wait's verdict, readable once exited is closed
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches the daemon; the caller waits for readiness with a client.
func (c daemonConfig) start() (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(c.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(c.bin, c.args(addr)...)
	cmd.Stderr = logf
	children.Lock()
	defer children.Unlock()
	if children.done {
		logf.Close()
		return nil, fmt.Errorf("loadgen is shutting down")
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	children.live = d
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill SIGKILLs the daemon and reaps it: a process crash. The OS page cache
// survives, so this tests process-crash durability, not power loss.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

// stop shuts the daemon down cleanly (SIGTERM: drain, shutdown checkpoint).
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("daemon ignored SIGTERM for 30s; killed")
	}
}

// clockTicks is the kernel's USER_HZ; /proc/<pid>/stat counts CPU time in it.
// It is 100 on every Linux platform Go supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// parseProcStat pulls utime+stime (fields 14 and 15) out of a stat line; the
// command name in field 2 may contain spaces, so fields count from the last
// closing parenthesis.
func parseProcStat(line string) (time.Duration, error) {
	at := strings.LastIndexByte(line, ')')
	if at < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(line[at+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procMemMB returns one memory line of /proc/<pid>/status in MB: "VmRSS" is
// the resident set now, "VmHWM" its peak over the process's life.
func procMemMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// environment is the block every result file records, so two files can be
// told apart before their numbers are compared.
type environment struct {
	Commit           string `json:"commit"`
	GoVersion        string `json:"goVersion"`
	NumCPU           int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocsLoadgen"`
	DaemonGOMAXPROCS int    `json:"gomaxprocsDaemon"`
	CPUModel         string `json:"cpuModel"`
	DataDirFS        string `json:"dataDirFilesystem"`
	FlushPolicy      string `json:"flushPolicy"`
	Durability       string `json:"durabilityScope"`
}

func describeEnvironment(workDir string) environment {
	env := environment{
		Commit:    "unknown",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		// The daemon is a Go child with the same environment and CPU mask,
		// so it resolves GOMAXPROCS exactly as this process does.
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:         "unknown",
		DataDirFS:        "unknown",
		FlushPolicy: "-fsync always (group commit), 4 MiB segments, checkpoint at 64 MiB or " +
			"10000 records, compaction at 8 MiB dead: the daemon's shipped defaults",
		Durability: "SIGKILL tests process-crash durability only: the OS page cache survives the kill",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	env.DataDirFS = filesystemOf(workDir)
	return env
}

// filesystemOf names the filesystem type holding dir, from the longest
// matching mount point in /proc/mounts.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range bytes.Split(b, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/") {
			if len(mp) > best {
				best, fs = len(mp), f[2]
			}
		}
	}
	return fs
}
