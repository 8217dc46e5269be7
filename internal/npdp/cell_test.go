package npdp

import (
	"context"
	"errors"
	"testing"

	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/pipeline"
	"cellnpdp/internal/trace"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

func cellOpts(workers int) CellOptions {
	return CellOptions{
		Workers:           workers,
		SchedSide:         1,
		UseSIMD:           true,
		DoubleBuffer:      true,
		CBStepCycles:      pipeline.CBStepCyclesSP(),
		ScalarRelaxCycles: DefaultScalarRelaxCycles,
	}
}

func TestCellMatchesSerial(t *testing.T) {
	mach, err := cellsim.NewMachine(cellsim.QS20())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{8, 16, 33, 64, 100, 200} {
		for _, workers := range []int{1, 4, 16} {
			src := workload.Chain[float32](n, int64(n+workers))
			ref := solveRef(src)
			tt := tri.ToTiled(src, 16)
			res, err := SolveCell(tt, mach, cellOpts(workers))
			if err != nil {
				t.Fatalf("SolveCell(n=%d w=%d): %v", n, workers, err)
			}
			got := tri.ToRowMajor(tt)
			if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
				t.Fatalf("n=%d w=%d: first diff at (%d,%d): serial=%v cell=%v", n, workers, i, j, av, bv)
			}
			if res.Seconds <= 0 {
				t.Errorf("n=%d w=%d: non-positive modeled time %g", n, workers, res.Seconds)
			}
		}
	}
}

func TestCellStatsMatchTiled(t *testing.T) {
	mach, _ := cellsim.NewMachine(cellsim.QS20())
	src := workload.Chain[float32](180, 3)
	tt1 := tri.ToTiled(src, 16)
	want, err := SolveTiled(tt1)
	if err != nil {
		t.Fatal(err)
	}
	tt2 := tri.ToTiled(src, 16)
	res, err := SolveCell(tt2, mach, cellOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != want {
		t.Errorf("cell stats %+v differ from tiled stats %+v", res.Stats, want)
	}
}

func TestModelCellMatchesFunctionalTiming(t *testing.T) {
	// Timing-only mode must produce exactly the modeled time of the
	// functional run: same task graph, same DMA schedule, same cycles.
	for _, workers := range []int{1, 5, 16} {
		for _, g := range []int{1, 2} {
			opts := cellOpts(workers)
			opts.SchedSide = g
			machF, _ := cellsim.NewMachine(cellsim.QS20())
			src := workload.Chain[float32](300, 9)
			tt := tri.ToTiled(src, 20)
			fun, err := SolveCell(tt, machF, opts)
			if err != nil {
				t.Fatal(err)
			}
			machM, _ := cellsim.NewMachine(cellsim.QS20())
			mod, err := ModelCell(300, 20, Single, machM, opts)
			if err != nil {
				t.Fatal(err)
			}
			if fun.Seconds != mod.Seconds {
				t.Errorf("w=%d g=%d: functional %g s vs modeled %g s", workers, g, fun.Seconds, mod.Seconds)
			}
			if fun.DMA != mod.DMA {
				t.Errorf("w=%d g=%d: DMA stats differ: %+v vs %+v", workers, g, fun.DMA, mod.DMA)
			}
			if fun.Stats != mod.Stats {
				t.Errorf("w=%d g=%d: kernel stats differ: %+v vs %+v", workers, g, fun.Stats, mod.Stats)
			}
		}
	}
}

func TestCellSpeedupWithSPEs(t *testing.T) {
	// The parallel procedure must scale: 16 SPEs at a reasonably large
	// modeled problem should be at least 10× faster than 1 SPE
	// (the paper reports 15.7×).
	mach, _ := cellsim.NewMachine(cellsim.QS20())
	opts1 := cellOpts(1)
	one, err := ModelCell(4096, 88, Single, mach, opts1)
	if err != nil {
		t.Fatal(err)
	}
	sixteen, err := ModelCell(4096, 88, Single, mach, cellOpts(16))
	if err != nil {
		t.Fatal(err)
	}
	speedup := one.Seconds / sixteen.Seconds
	if speedup < 10 || speedup > 16 {
		t.Errorf("16-SPE speedup = %.2f, want within [10, 16]", speedup)
	}
}

func TestCellLocalStoreOverflowRejected(t *testing.T) {
	// A tile too large for the six-buffer layout must fail cleanly.
	mach, _ := cellsim.NewMachine(cellsim.QS20())
	opts := cellOpts(2)
	if _, err := ModelCell(1024, 128, Single, mach, opts); err == nil {
		t.Error("tile 128 (6×64 KB buffers > 208 KB data region) was accepted")
	}
	// And the functional path too.
	tt := tri.ToTiled(workload.Chain[float32](256, 1), 128)
	if _, err := SolveCell(tt, mach, opts); err == nil {
		t.Error("functional run accepted an oversized tile")
	}
}

func TestCellOptionValidation(t *testing.T) {
	mach, _ := cellsim.NewMachine(cellsim.QS20())
	tt := tri.ToTiled(workload.Chain[float32](64, 1), 16)
	bad := []CellOptions{
		{},
		{Workers: 0, SchedSide: 1, CBStepCycles: 54, ScalarRelaxCycles: 27},
		{Workers: 17, SchedSide: 1, CBStepCycles: 54, ScalarRelaxCycles: 27},
		{Workers: 4, SchedSide: 0, CBStepCycles: 54, ScalarRelaxCycles: 27},
		{Workers: 4, SchedSide: 1, CBStepCycles: 0, ScalarRelaxCycles: 27},
		{Workers: 4, SchedSide: 1, CBStepCycles: 54, ScalarRelaxCycles: -1},
	}
	for i, o := range bad {
		if _, err := SolveCell(tt, mach, o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestCellDoubleBufferHelps(t *testing.T) {
	// With double buffering off, stage-1 transfers serialize with compute,
	// so the modeled time must not be lower.
	mach, _ := cellsim.NewMachine(cellsim.QS20())
	on := cellOpts(8)
	off := cellOpts(8)
	off.DoubleBuffer = false
	a, err := ModelCell(2048, 88, Single, mach, on)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ModelCell(2048, 88, Single, mach, off)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seconds < a.Seconds {
		t.Errorf("double buffering off (%g s) beat on (%g s)", b.Seconds, a.Seconds)
	}
}

func TestCellDMAAccountsAllBlocks(t *testing.T) {
	// Every memory block is written back exactly once: put bytes must be
	// blocks × tile² × 4.
	mach, _ := cellsim.NewMachine(cellsim.QS20())
	res, err := ModelCell(320, 16, Single, mach, cellOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	m := 320 / 16
	wantPut := int64(m*(m+1)/2) * 16 * 16 * 4
	if res.DMA.PutBytes != wantPut {
		t.Errorf("put bytes = %d, want %d", res.DMA.PutBytes, wantPut)
	}
	if res.DMA.GetBytes <= wantPut {
		t.Errorf("get bytes = %d should exceed put bytes %d (dependence blocks are re-fetched)", res.DMA.GetBytes, wantPut)
	}
}

func newTestMachine(t testing.TB) *cellsim.Machine {
	t.Helper()
	m, err := cellsim.NewMachine(cellsim.QS20())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCellSchedulingBlocksReduceDispatch(t *testing.T) {
	// With an exaggerated per-task dispatch cost, grouping memory blocks
	// into scheduling blocks must reduce the modeled time — the reason
	// scheduling blocks exist (Section IV-B).
	cfg := cellsim.QS20()
	cfg.DispatchOverhead = 200e-6
	machA, err := cellsim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fine := cellOpts(16)
	coarse := cellOpts(16)
	coarse.SchedSide = 4
	a, err := ModelCell(2048, 16, Single, machA, fine)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ModelCell(2048, 16, Single, machA, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seconds >= a.Seconds {
		t.Errorf("scheduling blocks did not amortize dispatch: g=4 %gs vs g=1 %gs", b.Seconds, a.Seconds)
	}
}

func TestCellSmallBlocksPoorerAt16SPEs(t *testing.T) {
	// Figure 13's claim: at full SPE count, shrinking the memory block
	// degrades performance (more re-fetch volume, more commands, more
	// NUMA link traffic).
	mach := newTestMachine(t)
	t32, err := ModelCell(4096, 88, Single, mach, cellOpts(16)) // 32 KB blocks
	if err != nil {
		t.Fatal(err)
	}
	t4, err := ModelCell(4096, 32, Single, mach, cellOpts(16)) // 4 KB blocks
	if err != nil {
		t.Fatal(err)
	}
	if t4.Seconds <= t32.Seconds*1.2 {
		t.Errorf("4 KB blocks (%gs) not clearly poorer than 32 KB (%gs)", t4.Seconds, t32.Seconds)
	}
	// And strictly more DMA traffic.
	if t4.DMA.GetBytes <= t32.DMA.GetBytes {
		t.Errorf("4 KB blocks fetched %d bytes, 32 KB fetched %d", t4.DMA.GetBytes, t32.DMA.GetBytes)
	}
}

func TestCellDeterministicModeledTime(t *testing.T) {
	mach := newTestMachine(t)
	opts := cellOpts(16)
	a, err := ModelCell(1024, 44, Single, mach, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ModelCell(1024, 44, Single, mach, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.DMA != b.DMA {
		t.Error("modeled runs are not deterministic")
	}
}

func TestCellNDLAblationSlower(t *testing.T) {
	// Figure 10(a): the SIMD SPE procedure must be much faster than the
	// scalar NDL-only configuration at equal layout.
	mach := newTestMachine(t)
	simd, err := ModelCell(2048, 88, Single, mach, cellOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	scalar := cellOpts(1)
	scalar.UseSIMD = false
	ndl, err := ModelCell(2048, 88, Single, mach, scalar)
	if err != nil {
		t.Fatal(err)
	}
	speedup := ndl.Seconds / simd.Seconds
	if speedup < 10 {
		t.Errorf("SPE procedure speedup over scalar = %.1f, want ≥10 (paper: 28x)", speedup)
	}
}

func TestCellTraceRecordsActivity(t *testing.T) {
	mach := newTestMachine(t)
	log := &trace.Log{}
	opts := cellOpts(4)
	opts.Trace = log
	if _, err := ModelCell(320, 16, Single, mach, opts); err != nil {
		t.Fatal(err)
	}
	if len(log.Events) == 0 {
		t.Fatal("no trace events recorded")
	}
	kinds := map[trace.Kind]int{}
	spes := map[int]bool{}
	for _, e := range log.Events {
		kinds[e.Kind]++
		spes[e.SPE] = true
		if e.End < e.Start {
			t.Fatalf("inverted interval: %+v", e)
		}
	}
	if kinds[trace.KindCompute] == 0 || kinds[trace.KindTask] == 0 {
		t.Errorf("missing kinds: %v", kinds)
	}
	if len(spes) != 4 {
		t.Errorf("events on %d SPEs, want 4", len(spes))
	}
	// Rendering works end to end.
	if len(log.Gantt(60)) == 0 || len(log.String()) == 0 {
		t.Error("rendering failed")
	}
	sums := log.Summarize()
	var totalTasks int
	for _, s := range sums {
		totalTasks += s.Tasks
	}
	m := 320 / 16
	if totalTasks != m*(m+1)/2 {
		t.Errorf("task events = %d, want %d", totalTasks, m*(m+1)/2)
	}
}

func TestRowMajorDMAAblation(t *testing.T) {
	// The prior tiling's per-row DMA must cost more commands and more
	// modeled time than the NDL's whole-block transfers, and must still
	// compute the right answer functionally.
	mach := newTestMachine(t)
	ndl, err := ModelCell(2048, 88, Single, mach, cellOpts(16))
	if err != nil {
		t.Fatal(err)
	}
	rowOpts := cellOpts(16)
	rowOpts.RowMajorDMA = true
	row, err := ModelCell(2048, 88, Single, mach, rowOpts)
	if err != nil {
		t.Fatal(err)
	}
	if row.DMA.GetCommands <= ndl.DMA.GetCommands*10 {
		t.Errorf("per-row DMA commands %d not ≫ block commands %d", row.DMA.GetCommands, ndl.DMA.GetCommands)
	}
	if row.Seconds <= ndl.Seconds {
		t.Errorf("row-major DMA (%gs) not slower than NDL (%gs)", row.Seconds, ndl.Seconds)
	}
	// Functional correctness under the flag.
	src := workload.Chain[float32](200, 4)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 16)
	fOpts := cellOpts(4)
	fOpts.RowMajorDMA = true
	if _, err := SolveCell(tt, mach, fOpts); err != nil {
		t.Fatal(err)
	}
	if !tri.Equal[float32](ref, tri.ToRowMajor(tt)) {
		t.Fatal("row-major DMA mode changed results")
	}
}

// countdownCtx is a fake context whose Err() flips to Canceled after a
// fixed number of polls. The DES executor is synchronous and
// single-threaded, so this deterministically fires the cancellation at
// an exact poll site — including the checks between double-buffer phases
// inside computeMB — with no goroutines or timing involved.
type countdownCtx struct {
	context.Context
	polls int
	fire  int // Err() returns Canceled from this poll on (0 = never)
}

func (c *countdownCtx) Err() error {
	c.polls++
	if c.fire > 0 && c.polls >= c.fire {
		return context.Canceled
	}
	return nil
}

// TestCellCtxCancelBetweenDoubleBufferPhases sweeps the cancellation
// trigger across every poll site of a SolveCellCtx run. The engine polls
// both at task dispatch and between stage-1 double-buffer products, so
// there must be strictly more polls than tasks, every mid-run
// cancellation must surface context.Canceled, and a cancellation during
// a long block's stage-1 loop must abort without finishing that block.
func TestCellCtxCancelBetweenDoubleBufferPhases(t *testing.T) {
	const n, tile = 96, 8 // 12 blocks per side: off-diagonal mids up to 10
	build := func() *tri.Tiled[float32] {
		return tri.ToTiled(workload.Chain[float32](n, 5), tile)
	}
	// Reference run: count the total polls of a complete solve.
	mach, err := cellsim.NewMachine(cellsim.QS20())
	if err != nil {
		t.Fatal(err)
	}
	probe := &countdownCtx{Context: context.Background()}
	if _, err := SolveCellCtx(probe, build(), mach, cellOpts(4)); err != nil {
		t.Fatal(err)
	}
	blocks := (n + tile - 1) / tile
	tasks := blocks * (blocks + 1) / 2
	if probe.polls <= tasks {
		t.Fatalf("%d polls for %d tasks: the double-buffer loop is not checking between phases", probe.polls, tasks)
	}

	// Sweep the trigger across the whole poll range (step keeps the
	// sweep fast; it still lands inside many different stage-1 loops).
	for fire := 1; fire <= probe.polls; fire += 7 {
		mach, err := cellsim.NewMachine(cellsim.QS20())
		if err != nil {
			t.Fatal(err)
		}
		ctx := &countdownCtx{Context: context.Background(), fire: fire}
		_, err = SolveCellCtx(ctx, build(), mach, cellOpts(4))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fire=%d: err = %v, want context.Canceled", fire, err)
		}
	}
	// One more poll than the complete run needs: must still succeed.
	mach2, err := cellsim.NewMachine(cellsim.QS20())
	if err != nil {
		t.Fatal(err)
	}
	late := &countdownCtx{Context: context.Background(), fire: probe.polls + 1}
	if _, err := SolveCellCtx(late, build(), mach2, cellOpts(4)); err != nil {
		t.Fatalf("cancellation one poll after completion still failed the solve: %v", err)
	}
}
