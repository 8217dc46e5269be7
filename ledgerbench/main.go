// Command ledgerbench is the layer-ledger benchmark of the cellnpdp
// module. One run measures one workload for a fixed time and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 47, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, taken from untraced
// operations; with -trace 1 they are the per-layer ones, taken from a
// separate traced run that times calls into each layer's public
// functions from this package (the engines themselves carry no
// tracing). BENCHMARK.json at the repository root lists every metric
// with its unit, and every workload with the reason it exists.
//
// Build and run it from the repository root through the runner, which
// keeps the build cache and spill files under .bench_build/:
//
//	bash ledgerbench/run.sh -workload incore -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cellnpdp/internal/kernel"
)

// batchN is the problem size of the three batch workloads: large enough
// that stage 2, stage 1 and the row-major↔NDL copy dominate a solve and
// that two workers scale, small enough for dozens of solves per run.
const batchN = 2048

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition on a shared host does not move it.
const setupReps = 3

// minOps is the fewest timed operations a run takes, whatever its
// duration: op_s_tail needs ten samples beyond it.
const minOps = 11

// config is one run's settings.
type config struct {
	seed     int64
	duration time.Duration
	// workers is the host's core count; every engine, cluster and server
	// in the run uses exactly this many workers.
	workers  int
	n        int
	spillDir string
	// corrupt, when non-nil, reports whether operation i's result should
	// have one cell flipped before verification — the smoke test's proof
	// that the correctness check is not vacuous.
	corrupt func(op int) bool
}

func (c config) corrupts(op int) bool { return c.corrupt != nil && c.corrupt(op) }

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg config, traced bool) (*report, error){
	"incore":           runIncore,
	"outofcore":        runOutOfCore,
	"serve-mix":        runServeMix,
	"cluster-loopback": runClusterLoopback,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: incore, outofcore, serve-mix or cluster-loopback")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced ops; 1: per-layer metrics from a traced run")
	buildDir := fs.String("build-dir", ".bench_build", "directory that holds the run's spill files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for k := range workloads {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "ledgerbench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "ledgerbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "ledgerbench: -seconds must be positive, got %g\n", *seconds)
		return 2
	}
	spillDir, err := filepath.Abs(filepath.Join(*buildDir, fmt.Sprintf("spill-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(spillDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ledgerbench: spill directory: %v\n", err)
		return 1
	}
	defer os.RemoveAll(spillDir)

	cfg := config{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		workers:  runtime.NumCPU(),
		n:        batchN,
		spillDir: spillDir,
	}
	printHeader(stdout, cfg, *name, *trace)
	rep, err := runner(context.Background(), cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "ledgerbench: %s: %v\n", *name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(stderr, "ledgerbench: writing result: %v\n", err)
		return 1
	}
	return 0
}

// printHeader prints the run's environment on one line. Figures from
// hosts with different core counts or vector ISAs are not comparable,
// so every run states them.
func printHeader(w io.Writer, cfg config, name string, trace int) {
	h := map[string]any{
		"workload":   name,
		"trace":      trace,
		"seed":       cfg.seed,
		"seconds":    cfg.duration.Seconds(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goarch":     runtime.GOARCH,
		"vector_isa": kernel.VectorISA(),
		"go":         runtime.Version(),
		"workers":    cfg.workers,
		"n":          cfg.n,
		"spill_dir":  cfg.spillDir,
		"spill_fs":   fsType(cfg.spillDir),
	}
	b, _ := json.Marshal(h) // strings and numbers always marshal
	fmt.Fprintf(w, "ledgerbench header %s\n", b)
}
