package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/zuker"
)

// The BENCH_* trajectory: WriteBenchJSON measures the parallel CPU engine
// the way `go test -bench -benchmem` would (testing.Benchmark underneath,
// ns/op + allocs/op + bytes/op) across a workers sweep and the PR's
// ablation axes, and emits a machine-readable JSON file (BENCH_PR_N.json
// per PR; see scripts/bench.sh) so successive PRs can diff engine
// throughput.
//
// Engine configurations measured:
//
//	seed      mutex-guarded scheduler + 4×4 CB-step stage 1 (the PR-0 engine)
//	lockfree  lock-free scheduler, CB-step stage 1 (scheduler win in isolation)
//	panel     mutex-guarded scheduler, panel stage 1 (kernel win in isolation)
//	pr1       lock-free scheduler + panel stage 1 (the PR-1 shipping engine)
//
// Schema v2 adds the per-kernel stage-1 sweep (kernel_rows): each
// selectable kernel — scalar CB-step, pure-Go panel, vector assembly —
// pinned for a full solve over n ∈ {512, 1024, 2048, 4096}, plus the
// Four-Russians lattice kernel against the serial Nussinov reference,
// with the acceptance ratios in stage1_speedup.

// BenchRow is one measured engine configuration.
type BenchRow struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// KernelRow is one measured stage-1 kernel configuration: a full solve
// with the stage-1 kernel pinned (scalar CB-step, pure-Go panel, vector
// assembly), or the Nussinov lattice solve (Four-Russians vs serial).
// CellsPerSec is derived from the n³/6 stage-1 relaxation count.
type KernelRow struct {
	Kernel      string  `json:"kernel"`
	N           int     `json:"n"`
	Workers     int     `json:"workers"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	CellsPerSec float64 `json:"cells_per_sec"`
}

// BenchReport is the top-level BENCH_*.json document.
type BenchReport struct {
	Schema        string             `json:"schema"`
	Generated     string             `json:"generated"`
	GoVersion     string             `json:"go_version"`
	GOARCH        string             `json:"goarch"`
	VectorISA     string             `json:"vector_isa"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	Tile          int                `json:"tile"`
	Precision     string             `json:"precision"`
	Rows          []BenchRow         `json:"rows"`
	KernelRows    []KernelRow        `json:"kernel_rows"`
	SpeedupVsSeed map[string]float64 `json:"speedup_vs_seed"`
	Stage1Speedup map[string]float64 `json:"stage1_speedup"`
}

type benchEngine struct {
	name string
	opts npdp.ParallelOptions
}

func benchEngines(workers int) []benchEngine {
	return []benchEngine{
		{"seed", npdp.ParallelOptions{Workers: workers, MutexPool: true, Stage1: perfmodel.KernelScalar}},
		{"lockfree", npdp.ParallelOptions{Workers: workers, Stage1: perfmodel.KernelScalar}},
		{"panel", npdp.ParallelOptions{Workers: workers, MutexPool: true}},
		{"pr1", npdp.ParallelOptions{Workers: workers}},
	}
}

// WriteBenchJSON runs the sweep and writes the report to path.
//
// The full workers sweep {1,2,4,8} runs the seed and pr1 engines at
// n=2048 single precision (the acceptance size); the two isolation
// configurations and the n=1024 sanity size run at 8 workers only, to
// keep the total wall time in minutes.
func WriteBenchJSON(cfg Config, path string) error {
	tile := paperTile(npdp.Single)
	rep := BenchReport{
		Schema:        "cellnpdp-bench/v2",
		Generated:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOARCH:        runtime.GOARCH,
		VectorISA:     kernel.VectorISA(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Tile:          tile,
		Precision:     "single",
		SpeedupVsSeed: map[string]float64{},
	}

	type cell struct {
		n, workers int
		engines    []string
	}
	var plan []cell
	for _, w := range []int{1, 2, 4, 8} {
		plan = append(plan, cell{2048, w, []string{"seed", "pr1"}})
	}
	plan = append(plan,
		cell{2048, 8, []string{"lockfree", "panel"}},
		cell{1024, 8, []string{"seed", "pr1"}},
	)

	seedNs := map[string]float64{}
	for _, c := range plan {
		src := cfg.chainF32(c.n)
		for _, eng := range benchEngines(c.workers) {
			keep := false
			for _, want := range c.engines {
				keep = keep || eng.name == want
			}
			if !keep {
				continue
			}
			var runErr error
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tt := tri.ToTiled(src, tile)
					b.StartTimer()
					if _, err := npdp.SolveParallel(tt, eng.opts); err != nil {
						runErr = err
						return
					}
				}
			})
			if runErr != nil {
				return fmt.Errorf("bench %s n=%d w=%d: %w", eng.name, c.n, c.workers, runErr)
			}
			row := BenchRow{
				Name:        eng.name,
				N:           c.n,
				Workers:     c.workers,
				Iterations:  res.N,
				NsPerOp:     float64(res.NsPerOp()),
				AllocsPerOp: res.AllocsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
			}
			rep.Rows = append(rep.Rows, row)
			key := fmt.Sprintf("n%d_w%d", c.n, c.workers)
			if eng.name == "seed" {
				seedNs[key] = row.NsPerOp
			}
			fmt.Fprintf(cfg.out(), "bench %-8s n=%-5d workers=%d  %12.0f ns/op  %5d allocs/op\n",
				eng.name, c.n, c.workers, row.NsPerOp, row.AllocsPerOp)
		}
	}
	for _, row := range rep.Rows {
		key := fmt.Sprintf("n%d_w%d", row.N, row.Workers)
		if base, ok := seedNs[key]; ok && row.Name != "seed" && row.NsPerOp > 0 {
			rep.SpeedupVsSeed[key+"_"+row.Name] = base / row.NsPerOp
		}
	}

	if err := kernelSweep(cfg, &rep); err != nil {
		return err
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// kernelSweep appends the per-kernel stage-1 rows: each min-plus kernel
// pinned via ParallelOptions.Stage1 over the size sweep, plus the
// Four-Russians lattice kernel against its serial reference. The
// stage1_speedup map distills the acceptance ratios (vector vs scalar
// and panel, Four-Russians vs serial, per n).
func kernelSweep(cfg Config, rep *BenchReport) error {
	rep.Stage1Speedup = map[string]float64{}
	workers := cfg.workers()
	sizes := []int{512, 1024, 2048, 4096}
	tile := paperTile(npdp.Single)

	sels := []perfmodel.Kernel{perfmodel.KernelScalar, perfmodel.KernelPanel}
	if kernel.VectorEnabled() {
		sels = append(sels, perfmodel.KernelVector)
	}
	nsFor := map[string]float64{}
	record := func(name string, n int, res testing.BenchmarkResult) {
		row := KernelRow{
			Kernel:      name,
			N:           n,
			Workers:     workers,
			Iterations:  res.N,
			NsPerOp:     float64(res.NsPerOp()),
			CellsPerSec: float64(n) * float64(n) * float64(n) / 6 / (float64(res.NsPerOp()) * 1e-9),
		}
		rep.KernelRows = append(rep.KernelRows, row)
		nsFor[fmt.Sprintf("n%d_%s", n, name)] = row.NsPerOp
		fmt.Fprintf(cfg.out(), "kernel %-14s n=%-5d %14.0f ns/op  %10.3g cells/s\n", name, n, row.NsPerOp, row.CellsPerSec)
	}

	for _, n := range sizes {
		src := cfg.chainF32(n)
		for _, sel := range sels {
			var runErr error
			opts := npdp.ParallelOptions{Workers: workers, Stage1: sel}
			// KernelVector pins the same panel entry points as KernelPanel;
			// the vector row times the assembly dispatch, the panel row
			// forces the pure-Go body process-wide for its measurement.
			restore := func() {}
			if sel == perfmodel.KernelPanel && kernel.VectorEnabled() {
				restore = kernel.SetVectorEnabled(false)
			}
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tt := tri.ToTiled(src, tile)
					b.StartTimer()
					if _, err := npdp.SolveParallel(tt, opts); err != nil {
						runErr = err
						return
					}
				}
			})
			restore()
			if runErr != nil {
				return fmt.Errorf("kernel bench %v n=%d: %w", sel, n, runErr)
			}
			record(sel.String(), n, res)
		}

		// The lattice pair: Four-Russians vs the serial Nussinov reference
		// on a deterministic random sequence of the same n.
		seq := benchSeq(n)
		for _, fr := range []bool{false, true} {
			name := "nussinov-serial"
			if fr {
				name = "fourrussians"
			}
			var runErr error
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := zuker.MaxPairs(seq, 1, fr); err != nil {
						runErr = err
						return
					}
				}
			})
			if runErr != nil {
				return fmt.Errorf("kernel bench %s n=%d: %w", name, n, runErr)
			}
			record(name, n, res)
		}

		key := func(name string) float64 { return nsFor[fmt.Sprintf("n%d_%s", n, name)] }
		if v := key("vector"); v > 0 {
			rep.Stage1Speedup[fmt.Sprintf("n%d_vector_vs_scalar", n)] = key("scalar") / v
			rep.Stage1Speedup[fmt.Sprintf("n%d_vector_vs_panel", n)] = key("panel") / v
		}
		if v := key("fourrussians"); v > 0 {
			rep.Stage1Speedup[fmt.Sprintf("n%d_fourrussians_vs_serial", n)] = key("nussinov-serial") / v
		}
	}
	return nil
}

// benchSeq is the deterministic random RNA sequence the lattice rows use.
func benchSeq(n int) zuker.Seq {
	rng := rand.New(rand.NewSource(int64(n) * 17))
	seq := make(zuker.Seq, n)
	for i := range seq {
		seq[i] = zuker.Base("ACGU"[rng.Intn(4)])
	}
	return seq
}
