package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run prints with -trace 0, in BENCHMARK.json
// order. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"op_s_tail", "s"},
	{"grelax_per_s", "1e9/s"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run prints, in BENCHMARK.json order.
// Times and counts are per operation (means over the traced ops); a
// layer a workload does not pass through reads 0.
var perLayer = []metricDef{
	{"tri.to_tiled_s", "s"},
	{"tri.copy_back_s", "s"},
	{"sched.tasks", "count"},
	{"sched.idle_frac", "ratio"},
	{"kernel.stage1_s", "s"},
	{"kernel.stage1_calls", "count"},
	{"kernel.stage2_s", "s"},
	{"kernel.relax", "count"},
	{"kernel.bytes_computed", "bytes"},
	{"resilience.crc_s", "s"},
	{"resilience.crc_bytes", "bytes"},
	{"ledger.residual_frac", "ratio"},
	{"pager.create_s", "s"},
	{"pager.solve_s", "s"},
	{"pager.materialize_s", "s"},
	{"pager.close_s", "s"},
	{"pager.spilled_bytes", "bytes"},
	{"pager.fetched_bytes", "bytes"},
	{"pager.pristine_bytes", "bytes"},
	{"pager.evictions", "count"},
	{"pager.commits", "count"},
	{"pager.resident_peak", "frames"},
	{"pager.bound_ratio", "ratio"},
	{"pager.overhead_s", "s"},
	{"cluster.coordinate_s", "s"},
	{"cluster.dispatched", "count"},
	{"cluster.blocks_streamed", "count"},
	{"cluster.bytes_streamed", "bytes"},
	{"cluster.conn_read_bytes", "bytes"},
	{"cluster.conn_write_bytes", "bytes"},
	{"cluster.conn_read_s", "s"},
	{"cluster.conn_write_s", "s"},
	{"cluster.stale_results", "count"},
	{"cluster.overhead_s", "s"},
	{"serve.queue_s_p50", "s"},
	{"serve.queue_s_tail", "s"},
	{"serve.open_s_p50", "s"},
	{"serve.open_s_tail", "s"},
	{"serve.solve_s_p50", "s"},
	{"serve.overhead_s_p50", "s"},
	{"serve.status_200", "count"},
	{"serve.status_413", "count"},
	{"serve.status_429", "count"},
	{"serve.status_500", "count"},
	{"serve.status_503", "count"},
	{"serve.status_other", "count"},
	{"serve.gen_late_s_max", "s"},
	{"serve.model_ratio_p50", "ratio"},
	{"perfmodel.pred_s", "s"},
	{"perfmodel.ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.ops", "count"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newReport builds a report holding exactly the metrics in defs, taking
// each value from vals (0 where vals has none). A name in vals outside
// defs is a bug in this package, so it panics.
func newReport(t *tally, defs []metricDef, vals map[string]float64) *report {
	r := &report{
		Correct:   t.mismatched == 0 && t.leftover == nil,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for k := range vals {
		if _, ok := r.Metrics[k]; !ok {
			panic(fmt.Sprintf("ledgerbench: metric %q is not declared", k))
		}
	}
	return r
}

// tally counts a run's operations. An op fails when it errors, is
// refused, or returns a result that is not bit-identical to the serial
// reference; the last kind also makes the run incorrect. A goroutine
// left running after teardown fails the run.
type tally struct {
	attempted, failed, mismatched int
	leftover                      error
	logged                        int
}

func (t *tally) fail(op int, err error) {
	t.failed++
	t.log("op %d failed: %v", op, err)
}

func (t *tally) mismatch(op int, err error) {
	t.failed++
	t.mismatched++
	t.log("op %d is wrong: %v", op, err)
}

func (t *tally) leak(err error) {
	if err != nil && t.leftover == nil {
		t.leftover = err
		t.failed++
		t.log("hygiene: %v", err)
	}
}

func (t *tally) log(format string, args ...any) {
	if t.logged < 10 {
		fmt.Fprintf(os.Stderr, "ledgerbench: "+format+"\n", args...)
	}
	t.logged++
}

func (t *tally) okRatio() float64 {
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs with at least tailBeyond
// samples beyond it: the (tailBeyond+1)-th largest value, with its
// percentile rank. ok is false when there are too few samples.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) <= tailBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	k := len(s) - 1 - tailBeyond
	return s[k], 100 * float64(k+1) / float64(len(s)), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMiB is the process's peak resident set size (the kernel's
// VmHWM, read through getrusage).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// settle waits up to grace for the goroutine count to fall back to
// base, and reports the excess if it does not: a worker, listener or
// connection left behind by an op or a teardown.
func settle(base int, grace time.Duration) error {
	deadline := time.Now().Add(grace)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutine(s) still running %v after teardown (baseline %d)", n-base, grace, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// timedSetup runs build reps times and returns the last result with the
// median wall time of the repetitions. Each earlier result is released
// with the close func it returned before the next repetition starts.
func timedSetup[T any](reps int, build func() (T, func(), error)) (T, func(), float64, error) {
	var (
		v       T
		release func()
		secs    []float64
	)
	for i := 0; i < reps; i++ {
		if release != nil {
			release()
		}
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		v, release, err = build()
		if err != nil {
			return v, nil, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return v, release, median(secs), nil
}

// opResult is one operation's outcome: its timed seconds, the
// relaxations it completed, an error (the op failed or was refused) or a
// mismatch (it returned a wrong result).
type opResult struct {
	secs     float64
	relax    int64
	err      error
	mismatch error
}

// loopStats collects a closed loop's successful ops.
type loopStats struct {
	secs  []float64
	relax int64
	timed float64
}

// closedLoop runs op back to back, one caller, until d has elapsed and
// at least atLeast ops ran. Each op makes its input copy, then collects
// garbage and returns freed memory to the OS, then starts its timer, so
// the run's own allocations never land inside a timed op and peak RSS
// does not depend on when the collector last ran.
func closedLoop(t *tally, d time.Duration, atLeast int, op func(i int) opResult) loopStats {
	var ls loopStats
	deadline := time.Now().Add(d)
	for i := 0; i < atLeast || time.Now().Before(deadline); i++ {
		r := op(i)
		t.attempted++
		switch {
		case r.err != nil:
			t.fail(i, r.err)
		case r.mismatch != nil:
			t.mismatch(i, r.mismatch)
		default:
			ls.secs = append(ls.secs, r.secs)
			ls.relax += r.relax
			ls.timed += r.secs
		}
	}
	return ls
}

// endToEndValues fills the end-to-end metrics of a run from its timed
// samples, and prints the tail's percentile and sample count (the JSON
// carries only the value).
func endToEndValues(name string, setupS float64, lat []float64, relax int64, wall float64, t *tally) (map[string]float64, error) {
	tv, pct, ok := tail(lat)
	if !ok {
		return nil, fmt.Errorf("only %d successful ops; op_s_tail needs more than %d", len(lat), tailBeyond)
	}
	vals := map[string]float64{
		"setup_s":      setupS,
		"op_s_p50":     median(lat),
		"op_s_tail":    tv,
		"grelax_per_s": float64(relax) / wall / 1e9,
		"ok_ratio":     t.okRatio(),
		"peak_rss_mb":  peakRSSMiB(),
	}
	fmt.Printf("ledgerbench %s: %d ops, op_s_p50 %.6f s, op_s_tail %.6f s at p%.1f (%d samples beyond)\n",
		name, len(lat), vals["op_s_p50"], tv, pct, tailBeyond)
	return vals, nil
}
