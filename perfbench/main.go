// Command perfbench is the repository benchmark. It measures the real
// cmd/eumdns binary from outside with an open-loop UDP load generator, and
// the map distribution plane (mapmaker → mapwire → mapdist) in-process, on
// one of two named workloads:
//
//	perfbench -eumdns eumdns -out dir --workload hot --seed 1 --seconds 16 --trace 0
//
// Normally started through run.sh, which builds both binaries first. Every
// input (queries, arrival times, dirty ping targets, sampled checks) is
// derived from --seed; the world each workload serves is fixed. With
// --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
// ones; the last line of standard output is always one JSON result object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: hot or wide")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: drives every generated input")
	flag.IntVar(&o.seconds, "seconds", 16, "seconds of open-loop measurement in one run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.eumdns, "eumdns", "", "path of the eumdns binary under test")
	flag.StringVar(&o.out, "out", "", "directory for server logs and trace spans")
	flag.Parse()

	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want hot or wide)\n", o.workload)
		return 2
	}
	if o.eumdns == "" || o.out == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -eumdns, -out, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if _, err := os.Stat(o.eumdns); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	pinned, err := pinSelf()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	o.pinned = pinned

	res, err := runWorkload(wl, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	printResult(os.Stdout, res)
	return 0
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	eumdns   string
	out      string
	pinned   bool
}

// Pinning: the server runs on serverCPU and this process (the load
// generator and the in-process control plane) on benchCPU, so the two
// never compete for a core. Needs taskset and two CPUs; without them the
// benchmark runs unpinned and says so in its host line.
const (
	serverCPU   = "0"
	benchCPU    = "1"
	pinnedEnv   = "PERFBENCH_PINNED"
	minPinnable = 2
)

// pinSelf re-executes this program under taskset on benchCPU once, so the
// Go runtime starts with a one-CPU affinity mask (GOMAXPROCS 1). It
// reports whether pinning applies to this run.
func pinSelf() (bool, error) {
	if v := os.Getenv(pinnedEnv); v != "" {
		return v == "1", nil
	}
	ts, err := exec.LookPath("taskset")
	if err != nil || onlineCPUs() < minPinnable {
		fmt.Fprintln(os.Stderr, "perfbench: taskset or a second CPU unavailable: running unpinned")
		return false, os.Setenv(pinnedEnv, "0")
	}
	self, err := os.Executable()
	if err != nil {
		return false, fmt.Errorf("locate self for pinning: %w", err)
	}
	env := append(os.Environ(), pinnedEnv+"=1")
	args := append([]string{ts, "-c", benchCPU, self}, os.Args[1:]...)
	err = syscall.Exec(ts, args, env)
	return false, fmt.Errorf("exec taskset: %w", err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failRatio is failed over attempted operations. It is printed, not
// reported as a metric: it is 0 on a healthy run, and a metric must never
// be 0; the result carries it as attempted and failed.
func (r *result) failRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// printResult writes the human-readable report, then the JSON result as
// the last line.
func printResult(f *os.File, r *result) {
	for _, n := range r.notes {
		fmt.Fprintln(f, "# "+n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "%-28s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", r.failRatio(), r.Failed, r.Attempted)
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and plain types are stored
	}
	fmt.Fprintln(f, string(b))
}

// onlineCPUs counts the host's CPUs from /proc/cpuinfo, which unlike
// runtime.NumCPU ignores this process's affinity mask.
func onlineCPUs() int {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return 1
	}
	n := 0
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "processor") {
			n++
		}
	}
	return n
}

// hostLine fingerprints the machine a result was measured on.
func hostLine(pinned bool) string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	pin := "taskset pinned: server cpu " + serverCPU + ", generator cpu " + benchCPU
	if !pinned {
		pin = "unpinned (taskset or a second CPU unavailable)"
	}
	return fmt.Sprintf("host: nproc %d, cpu %q, kernel %s, go %s, %s",
		onlineCPUs(), model, kernel, runtime.Version(), pin)
}

// outPath names a file in the output directory.
func outPath(o options, name string) string { return filepath.Join(o.out, name) }
