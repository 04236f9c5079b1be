// Command perfbench is the repository's end-to-end benchmark. It starts
// a real topod process, drives it over loopback TCP from this one
// load-generator process, checks every answer it can against
// brute-force oracles, and prints one JSON result line. With --trace 1
// it instead runs the traced in-process pass that reports the
// per-layer numbers (trace.go).
//
// Run it through the wrapper, which builds topod and this command from
// the checkout first:
//
//	bash perfbench/run.sh --workload query --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics, and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	topod    string
	work     string
	repo     string
	tiny     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: query, hot or ingest")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end run against a topod process; 1: traced in-process per-layer run")
	flag.StringVar(&o.topod, "topod", "", "topod binary (run.sh builds it)")
	flag.StringVar(&o.work, "work", ".bench_build/run", "directory for data directories, logs, spans and result records")
	flag.StringVar(&o.repo, "repo", ".", "repository root, for the environment record")
	flag.BoolVar(&o.tiny, "tiny", false, "self-test sizes: a few thousand objects and short phases")
	refAddr := flag.String("ref", "", "serve the reference server (ref.go) on this address instead of running a workload")
	flag.Parse()
	if *refAddr != "" {
		runtime.GOMAXPROCS(topodProcs)
		if err := serveRef(*refAddr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	// A run stopped from outside still ends every topod it started.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigs
		killStarted()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", sig)
		os.Exit(1)
	}()

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run validates the options, runs one workload, and writes the run's
// record (environment, parameters, sample counts, notes) next to its
// other files.
func run(o options) (result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown --workload %q (want %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return result{}, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.trace == 0 {
		if o.topod == "" {
			return result{}, fmt.Errorf("-topod is required for an end-to-end run")
		}
		if _, err := os.Stat(o.topod); err != nil {
			return result{}, fmt.Errorf("topod binary: %w", err)
		}
	}
	// The generator runs on one P, like topod (topodProcs), and opens at
	// most two connections at a time.
	runtime.GOMAXPROCS(topodProcs)

	dir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("%s-s%d-t%d-%d", o.workload, o.seed, o.trace, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	// Data directories and inputs are large; the record, the spans and
	// topod's log are kept.
	defer removeDataDirs(dir)

	r := &runCtx{opts: o, wl: wl, dir: dir, size: sizes(o.tiny), tally: &tally{}, recordOnly: map[string]metric{}}
	r.env = environment(o, wl)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%d fsync=%s objects=%d\n",
		o.workload, o.seed, o.trace, wl.fsync, r.size.objects)

	metrics := map[string]metric{}
	want := metricUnits
	if o.trace == 1 {
		err = runTraced(r, metrics)
		want = perLayerUnits
	} else if err = r.startRef(); err == nil {
		err = wl.run(r, metrics)
	}
	killStarted()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	for name := range recordOnly {
		if m, ok := metrics[name]; ok {
			r.recordOnly[name] = m
			delete(metrics, name)
		}
	}
	if o.trace == 0 {
		if err := complete(r.recordOnly, recordOnly); err != nil {
			return result{}, fmt.Errorf("%s: %w", o.workload, err)
		}
	}
	if err := complete(metrics, want); err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	res := result{
		Correct:   r.tally.failed.Load() == 0,
		Attempted: r.tally.attempted.Load(),
		Failed:    r.tally.failed.Load(),
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	if err := r.writeRecord(res); err != nil {
		return result{}, err
	}
	return res, nil
}

// complete checks that a run produced exactly the named metrics, each
// with its unit.
func complete(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		if g, ok := got[name]; !ok || g.Unit != unit {
			return fmt.Errorf("metric %s missing or not in %s", name, unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics reported, %d defined", len(got), len(want))
	}
	return nil
}

// sizing holds every count the workloads use, so the self-test can run
// the same code at a tiny size.
type sizing struct {
	objects     int             // main index
	overlay     int             // in-memory join partner
	setups      int             // set-up repetitions behind setup_s
	hotPool     int             // distinct reference rectangles of the hot reader
	probe       [numOpKinds]int // closed-loop read probe, requests per class
	probeWrites int             // single writes of the write probe
	probeBulks  int             // batches of the bulk probe
	traceReads  int             // sampled requests per read class in the traced run
	traceWrites int
	recoveries  int // kill -9 reboots behind recover_s
}

func sizes(tiny bool) sizing {
	if tiny {
		return sizing{objects: 3000, overlay: 200, setups: 1, hotPool: 16,
			probe: [numOpKinds]int{40, 40, 40, 40, 3}, probeWrites: 100, probeBulks: 20,
			traceReads: 20, traceWrites: 20, recoveries: 1}
	}
	return sizing{objects: 100000, overlay: 2000, setups: 5, hotPool: 24,
		// Selects are cheap, so their p99 gets more samples.
		probe:       [numOpKinds]int{opWindow: 1000, opSelect: 2500, opConj: 1000, opKNN: 1000, opJoin: 25},
		probeWrites: 3000, probeBulks: 600,
		traceReads: 300, traceWrites: 600, recoveries: 5}
}

// runCtx is the state one invocation shares across its phases.
type runCtx struct {
	opts  options
	wl    *workloadSpec
	dir   string
	size  sizing
	tally *tally
	env   envRecord
	notes []string
	// samples records how many observations stand behind each metric.
	samples map[string]int
	// recordOnly holds the metrics printed in the record only.
	recordOnly map[string]metric
	// ref is the reference server of an end-to-end run.
	ref *proc
}

func (r *runCtx) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.notes = append(r.notes, msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
}

func (r *runCtx) sampled(name string, n int) {
	if r.samples == nil {
		r.samples = map[string]int{}
	}
	r.samples[name] = n
}

// writeRecord stores the result with its environment and sample counts
// as <work>/<run>/record.json and prints it as one line before the
// result line.
func (r *runCtx) writeRecord(res result) error {
	rec := struct {
		Env        envRecord         `json:"env"`
		Result     result            `json:"result"`
		RecordOnly map[string]metric `json:"record_only,omitempty"`
		Samples    map[string]int    `json:"samples"`
		Notes      []string          `json:"notes,omitempty"`
		Failures   []string          `json:"failures,omitempty"`
	}{r.env, res, r.recordOnly, r.samples, r.notes, r.tally.failures()}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.dir, "record.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("record " + string(b))
	return nil
}

// removeDataDirs deletes the data directories under a run directory,
// keeping its record, spans and logs.
func removeDataDirs(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			_ = os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

// tally counts operations attempted and failed. An oracle mismatch
// fails an operation that was already attempted.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	msgs      []string
}

// maxFailureNotes bounds the failure messages kept for the record.
const maxFailureNotes = 20

func (t *tally) attempt(n int) { t.attempted.Add(int64(n)) }

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.msgs) < maxFailureNotes {
		msg := fmt.Sprintf(format, args...)
		t.msgs = append(t.msgs, msg)
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
}

// check counts one attempted operation, failed when err is not nil.
func (t *tally) check(err error) bool {
	t.attempt(1)
	if err != nil {
		t.fail("%v", err)
		return false
	}
	return true
}

func (t *tally) failures() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.msgs...)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// elapsedSince is time.Since in seconds.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
