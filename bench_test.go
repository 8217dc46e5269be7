// Benchmarks regenerating the paper's evaluation, one target per table
// and figure (see DESIGN.md §4 for the mapping), plus ablation benches
// for the design choices. Absolute host nanoseconds are not the paper's
// numbers; the custom metrics (modeled seconds, speedups, bytes) carry
// the reproduced quantities.
package cellnpdp

import (
	"testing"

	"cellnpdp/internal/baseline"
	"cellnpdp/internal/cachesim"
	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/kernel"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/pipeline"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/simd"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
	"cellnpdp/internal/zuker"
)

// benchOpts builds the standard CellNPDP options.
func benchOpts(workers int, prec npdp.Precision) npdp.CellOptions {
	cycles := pipeline.CBStepCyclesSP()
	if prec == npdp.Double {
		cycles = pipeline.CBStepCyclesDP()
	}
	return npdp.CellOptions{
		Workers: workers, SchedSide: 1, UseSIMD: true, DoubleBuffer: true,
		CBStepCycles: cycles, ScalarRelaxCycles: npdp.DefaultScalarRelaxCycles,
	}
}

func mustMachine(b *testing.B) *cellsim.Machine {
	b.Helper()
	m, err := cellsim.NewMachine(cellsim.QS20())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// ---- Table I: the computing-block kernel ----

// BenchmarkTable1_CountedCBStep runs the instrumented 80-instruction SIMD
// step (12 load + 16 shuffle + 16 add + 16 cmp + 16 sel + 4 store).
func BenchmarkTable1_CountedCBStep(b *testing.B) {
	blk := make([]float32, 16)
	var counts simd.Counts
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kernel.CountedStepF32(blk, blk, blk, 4, &counts)
	}
	b.ReportMetric(float64(counts.Total())/float64(b.N), "instrs/step")
	b.ReportMetric(pipeline.CBStepCyclesSP(), "modeled-cycles/step")
}

// BenchmarkTable1_PlainCBStep runs the production (uncounted) step.
func BenchmarkTable1_PlainCBStep(b *testing.B) {
	blk := make([]float32, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kernel.Step4x4(blk, blk, blk, 4)
	}
	b.ReportMetric(64, "relaxations/step")
}

// ---- Table II: QS20 times ----

// BenchmarkTable2_ModelQS20 runs the timing-only CellNPDP model at the
// paper's smallest size and reports the modeled seconds.
func BenchmarkTable2_ModelQS20(b *testing.B) {
	m := mustMachine(b)
	var modeled float64
	for i := 0; i < b.N; i++ {
		res, err := npdp.ModelCell(4096, 88, npdp.Single, m, benchOpts(16, npdp.Single))
		if err != nil {
			b.Fatal(err)
		}
		modeled = res.Seconds
	}
	b.ReportMetric(modeled, "modeled-s(n=4096,16SPE)")
	b.ReportMetric(0.22, "paper-s")
}

// BenchmarkTable2_FunctionalCell actually computes the DP through the
// simulated local stores and DMA at a scaled size.
func BenchmarkTable2_FunctionalCell(b *testing.B) {
	m := mustMachine(b)
	src := workload.Chain[float32](512, 1)
	b.ResetTimer()
	var modeled float64
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 88)
		res, err := npdp.SolveCell(tt, m, benchOpts(16, npdp.Single))
		if err != nil {
			b.Fatal(err)
		}
		modeled = res.Seconds
	}
	b.ReportMetric(modeled, "modeled-s(n=512)")
}

// BenchmarkTable2_OriginalSPEModel reports the baseline row of Table II.
func BenchmarkTable2_OriginalSPEModel(b *testing.B) {
	var sec float64
	for i := 0; i < b.N; i++ {
		res, err := npdp.ModelOriginalSPE(4096, npdp.Single, cellsim.QS20(), npdp.DefaultScalarRelaxCycles)
		if err != nil {
			b.Fatal(err)
		}
		sec = res.Seconds
	}
	b.ReportMetric(sec, "modeled-s(n=4096)")
	b.ReportMetric(3061, "paper-s")
}

// BenchmarkTable2_OriginalPPEModel reports the PPE row of Table II.
func BenchmarkTable2_OriginalPPEModel(b *testing.B) {
	var sec float64
	for i := 0; i < b.N; i++ {
		s, err := npdp.ModelOriginalPPE(4096, npdp.Single, npdp.DefaultPPEModel())
		if err != nil {
			b.Fatal(err)
		}
		sec = s
	}
	b.ReportMetric(sec, "modeled-s(n=4096)")
	b.ReportMetric(715, "paper-s")
}

// ---- Table III: CPU platform ----

// BenchmarkTable3_OriginalCPU measures the Figure 1 algorithm on the host.
func BenchmarkTable3_OriginalCPU(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		npdp.SolveSerial(m)
	}
}

// BenchmarkTable3_CellNPDPCPU measures the full CellNPDP-structured
// parallel engine on the host (8 workers, paper tile).
func BenchmarkTable3_CellNPDPCPU(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 88)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 8, SchedSide: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 9: data-transfer amounts ----

// BenchmarkFig9a_DMATraffic reports modeled Cell DMA bytes for the
// original layout and the NDL.
func BenchmarkFig9a_DMATraffic(b *testing.B) {
	m := mustMachine(b)
	var orig, ndl int64
	for i := 0; i < b.N; i++ {
		o, err := npdp.ModelOriginalSPE(4096, npdp.Single, cellsim.QS20(), npdp.DefaultScalarRelaxCycles)
		if err != nil {
			b.Fatal(err)
		}
		n, err := npdp.ModelCell(4096, 88, npdp.Single, m, benchOpts(16, npdp.Single))
		if err != nil {
			b.Fatal(err)
		}
		orig, ndl = o.DMA.TotalBytes(), n.DMA.TotalBytes()
	}
	b.ReportMetric(float64(orig)/1e9, "original-GB")
	b.ReportMetric(float64(ndl)/1e9, "NDL-GB")
}

// BenchmarkFig9b_CacheTraffic replays both layouts through the Nehalem
// cache hierarchy and reports memory bytes.
func BenchmarkFig9b_CacheTraffic(b *testing.B) {
	var orig, ndl int64
	for i := 0; i < b.N; i++ {
		h, err := cachesim.Nehalem()
		if err != nil {
			b.Fatal(err)
		}
		cachesim.TraceOriginal(h, 256, 4)
		orig = h.MemBytes()
		h2, err := cachesim.Nehalem()
		if err != nil {
			b.Fatal(err)
		}
		cachesim.TraceTiled(h2, 256, 16, 4)
		ndl = h2.MemBytes()
	}
	b.ReportMetric(float64(orig), "original-bytes")
	b.ReportMetric(float64(ndl), "NDL-bytes")
}

// ---- Figures 10/11: speedup breakdowns ----

// benchBreakdownCell reports the modeled Cell-side breakdown factors.
func benchBreakdownCell(b *testing.B, prec npdp.Precision) {
	m := mustMachine(b)
	tile := 88
	if prec == npdp.Double {
		tile = 64
	}
	var ndlX, spepX, parpX float64
	for i := 0; i < b.N; i++ {
		orig, err := npdp.ModelOriginalSPE(4096, prec, cellsim.QS20(), npdp.DefaultScalarRelaxCycles)
		if err != nil {
			b.Fatal(err)
		}
		scalarOpts := benchOpts(1, prec)
		scalarOpts.UseSIMD = false
		ndl, err := npdp.ModelCell(4096, tile, prec, m, scalarOpts)
		if err != nil {
			b.Fatal(err)
		}
		spep, err := npdp.ModelCell(4096, tile, prec, m, benchOpts(1, prec))
		if err != nil {
			b.Fatal(err)
		}
		parp, err := npdp.ModelCell(4096, tile, prec, m, benchOpts(16, prec))
		if err != nil {
			b.Fatal(err)
		}
		ndlX = orig.Seconds / ndl.Seconds
		spepX = ndl.Seconds / spep.Seconds
		parpX = spep.Seconds / parp.Seconds
	}
	b.ReportMetric(ndlX, "NDL-x")
	b.ReportMetric(spepX, "SPEP-x")
	b.ReportMetric(parpX, "PARP16-x")
}

// BenchmarkFig10a_BreakdownCellSP: paper averages 31.6x / 28x / 15.7x.
func BenchmarkFig10a_BreakdownCellSP(b *testing.B) { benchBreakdownCell(b, npdp.Single) }

// BenchmarkFig11a_BreakdownCellDP: the DP breakdown (smaller SPEP bar).
func BenchmarkFig11a_BreakdownCellDP(b *testing.B) { benchBreakdownCell(b, npdp.Double) }

// The four measured stages of the CPU-side breakdown (Figures 10(b) and
// 11(b)) as separate benches so `-bench Fig10b` prints the whole series.

func BenchmarkFig10b_Original(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		npdp.SolveSerial(m)
	}
}

func BenchmarkFig10b_NDLScalar(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 88)
		if _, err := npdp.SolveTiledScalar(tt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10b_CBKernel(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 88)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 1, Stage1: perfmodel.KernelScalar}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10b_Parallel8(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 88)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11b_Original(b *testing.B) {
	src := workload.Chain[float64](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		npdp.SolveSerial(m)
	}
}

func BenchmarkFig11b_CBKernel(b *testing.B) {
	src := workload.Chain[float64](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 64)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 1, Stage1: perfmodel.KernelScalar}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11b_Parallel8(b *testing.B) {
	src := workload.Chain[float64](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 64)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 12: vs TanNPDP ----

func BenchmarkFig12a_TanNPDP(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		if _, err := baseline.Solve(m, baseline.Options{Workers: 8, Tile: 88}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12a_CellNPDP(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 88)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12b_TanNPDP(b *testing.B) {
	src := workload.Chain[float64](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		if _, err := baseline.Solve(m, baseline.Options{Workers: 8, Tile: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12b_CellNPDP(b *testing.B) {
	src := workload.Chain[float64](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 64)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 13: memory-block size sweep ----

// BenchmarkFig13_BlockSizes reports the modeled speedup over the 32 KB /
// 1 SPE baseline for each block size at 16 SPEs.
func BenchmarkFig13_BlockSizes(b *testing.B) {
	m := mustMachine(b)
	tiles := map[string]int{"32KB": 88, "16KB": 64, "8KB": 44, "4KB": 32}
	var base float64
	speed := map[string]float64{}
	for i := 0; i < b.N; i++ {
		r, err := npdp.ModelCell(4096, 88, npdp.Single, m, benchOpts(1, npdp.Single))
		if err != nil {
			b.Fatal(err)
		}
		base = r.Seconds
		for name, tile := range tiles {
			r16, err := npdp.ModelCell(4096, tile, npdp.Single, m, benchOpts(16, npdp.Single))
			if err != nil {
				b.Fatal(err)
			}
			speed[name] = base / r16.Seconds
		}
	}
	for _, name := range []string{"32KB", "16KB", "8KB", "4KB"} {
		b.ReportMetric(speed[name], name+"-x16SPE")
	}
}

// ---- Application benches ----

// BenchmarkZukerFoldParallel folds a 1 knt random RNA on the parallel engine.
func BenchmarkZukerFoldParallel(b *testing.B) {
	seq, err := zuker.ParseSeq(workload.RNA(1000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zuker.Fold(seq, zuker.Options{Engine: zuker.EngineParallel, Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches (DESIGN.md §6) ----

// BenchmarkAblationLayout compares equal tiling on the two layouts:
// block-sequential NDL vs scattered row-major (the TanNPDP layout).
func BenchmarkAblationLayout_NDL(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 88)
		if _, err := npdp.SolveTiledScalar(tt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLayout_RowMajor(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := src.Clone()
		if _, err := baseline.Solve(m, baseline.Options{Workers: 1, Tile: 88}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCB compares stage 2 with 4×4 computing blocks against
// straight scalar loops at equal layout and tiling.
func BenchmarkAblationCB_Kernel(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 88)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 1, Stage1: perfmodel.KernelScalar}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCB_Scalar(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 88)
		if _, err := npdp.SolveTiledScalar(tt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDoubleBuf reports the modeled cost of disabling the
// stage-1 prefetch overlap.
func BenchmarkAblationDoubleBuf(b *testing.B) {
	m := mustMachine(b)
	var on, off float64
	for i := 0; i < b.N; i++ {
		r, err := npdp.ModelCell(4096, 88, npdp.Single, m, benchOpts(16, npdp.Single))
		if err != nil {
			b.Fatal(err)
		}
		on = r.Seconds
		opts := benchOpts(16, npdp.Single)
		opts.DoubleBuffer = false
		r2, err := npdp.ModelCell(4096, 88, npdp.Single, m, opts)
		if err != nil {
			b.Fatal(err)
		}
		off = r2.Seconds
	}
	b.ReportMetric(on, "double-buffered-s")
	b.ReportMetric(off, "serialized-s")
}

// BenchmarkAblationSchedBlock sweeps the scheduling-block side: larger
// tasks amortize dispatch overhead but reduce available parallelism.
func BenchmarkAblationSchedBlock(b *testing.B) {
	m := mustMachine(b)
	secs := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, g := range []int{1, 2, 4} {
			opts := benchOpts(16, npdp.Single)
			opts.SchedSide = g
			r, err := npdp.ModelCell(4096, 88, npdp.Single, m, opts)
			if err != nil {
				b.Fatal(err)
			}
			secs[g] = r.Seconds
		}
	}
	b.ReportMetric(secs[1], "g1-s")
	b.ReportMetric(secs[2], "g2-s")
	b.ReportMetric(secs[4], "g4-s")
}

// BenchmarkAblationDeps compares the simplified two-edge dependence graph
// against full dependence counting on the host parallel engine.
func BenchmarkAblationDeps_Simplified(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 32)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDeps_Full(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 32)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 8, FullDeps: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphBuild isolates graph-construction overhead of the two
// dependence schemes.
func BenchmarkGraphBuild_Simplified(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sched.NewGraph(128, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphBuild_Full(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sched.NewFullGraph(128, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLockfree isolates the scheduler rebuild: the same
// dependence graph driven through the lock-free RunPool (atomic
// dependence counters, no mutex on the completion path) versus the seed's
// mutex-guarded RunPoolLocked, with trivial task bodies so dispatch
// overhead dominates.
func benchPoolDispatch(b *testing.B, run func(*sched.Graph, int, func(int, sched.Task) error) error) {
	g, err := sched.NewGraph(96, 1) // 4656 tiny tasks
	if err != nil {
		b.Fatal(err)
	}
	workers := 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(g, workers, func(int, sched.Task) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.Tasks)*b.N)/b.Elapsed().Seconds(), "tasks/s")
}

func BenchmarkAblationLockfree_LockFree(b *testing.B) { benchPoolDispatch(b, sched.RunPool) }
func BenchmarkAblationLockfree_Mutex(b *testing.B)    { benchPoolDispatch(b, sched.RunPoolLocked) }

// BenchmarkAblationPanel isolates the stage-1 kernel rebuild on one
// paper-sized memory-block product: the register-blocked 4×t panel kernel
// (with its float32 fast path) versus the seed's 4×4 CB-step MulMinPlus.
func benchStage1(b *testing.B, mul func(c, a, bb []float32, t int) kernel.Stats) {
	const tile = 88
	blk := func(seed int64) []float32 {
		s := make([]float32, tile*tile)
		for i := range s {
			s[i] = float32((int64(i)*seed)%251) * 0.5
		}
		return s
	}
	c, a, bb := blk(3), blk(5), blk(7)
	b.ReportAllocs()
	b.ResetTimer()
	var st kernel.Stats
	for i := 0; i < b.N; i++ {
		st = mul(c, a, bb, tile)
	}
	b.ReportMetric(float64(st.Relaxations()*int64(b.N))/b.Elapsed().Seconds(), "relax/s")
}

func BenchmarkAblationPanel_Panel(b *testing.B)   { benchStage1(b, kernel.PanelMinPlusF32) }
func BenchmarkAblationPanel_Generic(b *testing.B) { benchStage1(b, kernel.PanelMinPlus[float32]) }
func BenchmarkAblationPanel_CBStep(b *testing.B)  { benchStage1(b, kernel.MulMinPlus[float32]) }

// BenchmarkAblationEngine runs the whole parallel engine at the Fig-10b
// scale in the seed configuration (mutex pool + CB-step stage 1) and the
// PR-1 configuration (lock-free pool + panel stage 1); the workers sweep
// at n=2048 lives in BENCH_PR1.json via scripts/bench.sh.
func benchEngineConfig(b *testing.B, opts npdp.ParallelOptions) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 88)
		if _, err := npdp.SolveParallel(tt, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEngine_Seed(b *testing.B) {
	benchEngineConfig(b, npdp.ParallelOptions{Workers: 8, MutexPool: true, Stage1: perfmodel.KernelScalar})
}

func BenchmarkAblationEngine_PR1(b *testing.B) {
	benchEngineConfig(b, npdp.ParallelOptions{Workers: 8})
}

// BenchmarkAblationWavefront compares the paper's task-queue parallel
// procedure against the prior work's barrier-synchronized wavefront.
func BenchmarkAblationWavefront_TaskQueue(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 32)
		if _, err := npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWavefront_Barrier(b *testing.B) {
	src := workload.Chain[float32](1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := tri.ToTiled(src, 32)
		if _, err := npdp.SolveWavefrontBarrier(tt, 8); err != nil {
			b.Fatal(err)
		}
	}
}
