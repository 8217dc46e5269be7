package harness

import (
	"fmt"

	"cellnpdp/internal/baseline"
	"cellnpdp/internal/cachesim"
	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/stats"
	"cellnpdp/internal/tri"
)

// Fig9a regenerates Figure 9(a): data transferred between the Cell
// processor and main memory, original algorithm vs the new data layout.
func Fig9a(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 9(a) — Cell ⇄ memory traffic, single precision",
		"n", "original (per-element DMA)", "tiled row-major (per-row DMA)", "NDL (block DMA)", "reduction")
	for _, n := range paperSizes() {
		orig, err := npdp.ModelOriginalSPE(n, npdp.Single, cellsim.QS20(), npdp.DefaultScalarRelaxCycles)
		if err != nil {
			return nil, err
		}
		rowOpts := cellOpts(npdp.Single, 16)
		rowOpts.RowMajorDMA = true
		rowTiled, err := modelCell(n, npdp.Single, rowOpts)
		if err != nil {
			return nil, err
		}
		ndl, err := modelCell(n, npdp.Single, cellOpts(npdp.Single, 16))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n),
			stats.Bytes(orig.DMA.TotalBytes()),
			fmt.Sprintf("%s / %d cmds", stats.Bytes(rowTiled.DMA.TotalBytes()), rowTiled.DMA.GetCommands),
			fmt.Sprintf("%s / %d cmds", stats.Bytes(ndl.DMA.TotalBytes()), ndl.DMA.GetCommands),
			stats.Ratio(float64(orig.DMA.TotalBytes())/float64(ndl.DMA.TotalBytes())))
	}
	t.AddNote("the original re-reads the row stream and fetches every column operand individually; the prior tiling moves block bytes but needs one DMA command per scattered row; NDL moves each memory block whole")
	return t, nil
}

// Fig9b regenerates Figure 9(b): main-memory traffic on the CPU platform
// (64-byte cache lines) for the original layout, the prior tiling on the
// row-major layout, and the new data layout.
func Fig9b(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 9(b) — CPU ⇄ memory traffic (64 B lines, caches scaled 128× with the problem), single precision",
		"n", "original", "tiled row-major", "tiled NDL", "original/NDL")
	sizes := []int{256, 512}
	if cfg.Full {
		sizes = append(sizes, 768)
	}
	for _, n := range sizes {
		run := func(trace func(*cachesim.Hierarchy, int, int, int)) (int64, error) {
			h, err := cachesim.ScaledNehalem()
			if err != nil {
				return 0, err
			}
			trace(h, n, 16, 4)
			return h.MemBytes(), nil
		}
		orig, err := run(cachesim.TraceOriginal4)
		if err != nil {
			return nil, err
		}
		row, err := run(cachesim.TraceTiledRowMajor)
		if err != nil {
			return nil, err
		}
		ndl, err := run(cachesim.TraceTiled)
		if err != nil {
			return nil, err
		}
		ratio := "inf"
		if ndl > 0 {
			ratio = stats.Ratio(float64(orig) / float64(ndl))
		}
		t.AddRow(fmt.Sprintf("%d", n), stats.Bytes(orig), stats.Bytes(row), stats.Bytes(ndl), ratio)
	}
	t.AddNote("trace-driven simulation is O(n³), so scaled sizes run against 128×-scaled caches (LLC 64 KB): n=512 vs 64 KB ≈ paper's n=4096 vs 8 MiB")
	t.AddNote("tile 16 keeps the trace cost manageable; larger tiles only widen NDL's advantage")
	return t, nil
}

// breakdownCell produces the Cell-side speedup breakdown of Figures 10(a)
// and 11(a): original on one SPE → +NDL → +SPE procedure → +parallel.
func breakdownCell(cfg Config, prec npdp.Precision, title string, paperNote string) (*stats.Table, error) {
	t := stats.NewTable(title,
		"n", "NDL vs original", "+SPE procedure", "+parallel (16 SPEs)", "total")
	for _, n := range paperSizes() {
		orig, err := npdp.ModelOriginalSPE(n, prec, cellsim.QS20(), npdp.ScalarRelaxCyclesFor(prec))
		if err != nil {
			return nil, err
		}
		ndlOpts := cellOpts(prec, 1)
		ndlOpts.UseSIMD = false
		ndl, err := modelCell(n, prec, ndlOpts)
		if err != nil {
			return nil, err
		}
		spep, err := modelCell(n, prec, cellOpts(prec, 1))
		if err != nil {
			return nil, err
		}
		parp, err := modelCell(n, prec, cellOpts(prec, 16))
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n),
			stats.Ratio(orig.Seconds/ndl.Seconds),
			stats.Ratio(ndl.Seconds/spep.Seconds),
			stats.Ratio(spep.Seconds/parp.Seconds),
			stats.Ratio(orig.Seconds/parp.Seconds))
	}
	t.AddNote("%s", paperNote)
	return t, nil
}

// Fig10a regenerates Figure 10(a): the single-precision speedup breakdown
// on the Cell blade.
func Fig10a(cfg Config) (*stats.Table, error) {
	return breakdownCell(cfg, npdp.Single,
		"Figure 10(a) — speedup breakdown on the Cell blade, single precision",
		"paper averages: NDL 31.6x, SPE procedure a further 28x, 16 SPEs a further 15.7x")
}

// Fig11a regenerates Figure 11(a): the double-precision breakdown on the
// Cell blade, where the 13-cycle DPFP latency and 6-cycle stall shrink
// the SPE-procedure gain.
func Fig11a(cfg Config) (*stats.Table, error) {
	return breakdownCell(cfg, npdp.Double,
		"Figure 11(a) — speedup breakdown on the Cell blade, double precision",
		"the SPE-procedure gain shrinks vs Figure 10(a): 2-wide SIMD, 13-cycle DPFP latency, 6-cycle stalls (Section VI-A.5)")
}

// breakdownCPU produces the CPU-side breakdown of Figures 10(b)/11(b),
// measured: original → tiled NDL (scalar) → + computing-block kernel →
// + parallel workers.
func breakdownCPU[E interface{ ~float32 | ~float64 }](cfg Config, build func(int) *tri.RowMajor[E], tile int, title, paperNote string) (*stats.Table, error) {
	t := stats.NewTable(title,
		"n", "original (s)", "NDL scalar", "+CB kernel", fmt.Sprintf("+parallel (%d)", cfg.workers()), "total speedup")
	for _, n := range cfg.measuredSizes() {
		src := build(n)
		ser := src.Clone()
		tSerial := timeIt(func() { npdp.SolveSerial(ser) })

		ttScalar := tri.ToTiled(src, tile)
		var err error
		tNDL := timeIt(func() { _, err = npdp.SolveTiledScalar(ttScalar) })
		if err != nil {
			return nil, err
		}
		ttKernel := tri.ToTiled(src, tile)
		tKern := timeIt(func() {
			_, err = npdp.SolveParallel(ttKernel, npdp.ParallelOptions{Workers: 1, Stage1: perfmodel.KernelScalar})
		})
		if err != nil {
			return nil, err
		}
		ttPar := tri.ToTiled(src, tile)
		tPar := timeIt(func() {
			_, err = npdp.SolveParallel(ttPar, npdp.ParallelOptions{Workers: cfg.workers(), SchedSide: 1})
		})
		if err != nil {
			return nil, err
		}
		for name, tbl := range map[string]*tri.Tiled[E]{"NDL": ttScalar, "kernel": ttKernel, "parallel": ttPar} {
			if !tri.Equal[E](ser, tri.ToRowMajor(tbl)) {
				return nil, fmt.Errorf("breakdown: %s engine differs from serial at n=%d", name, n)
			}
		}
		t.AddRow(fmt.Sprintf("%d", n),
			stats.Seconds(tSerial),
			stats.Ratio(tSerial/tNDL),
			stats.Ratio(tNDL/tKern),
			stats.Ratio(tKern/tPar),
			stats.Ratio(tSerial/tPar))
	}
	t.AddNote("%s", paperNote)
	return t, nil
}

// Fig10b regenerates Figure 10(b): the measured single-precision
// breakdown on the host CPU.
func Fig10b(cfg Config) (*stats.Table, error) {
	return breakdownCPU(cfg, cfg.chainF32, paperTile(npdp.Single),
		"Figure 10(b) — speedup breakdown on the host CPU, single precision (measured)",
		"paper averages on Nehalem: NDL 7.14x, SPE procedure 5.28x (SSE), 8 cores 7.22x; Go's CB-kernel bar reflects ILP/locality only — no SIMD intrinsics")
}

// Fig11b regenerates Figure 11(b): the measured double-precision CPU
// breakdown.
func Fig11b(cfg Config) (*stats.Table, error) {
	return breakdownCPU(cfg, cfg.chainF64, paperTile(npdp.Double),
		"Figure 11(b) — speedup breakdown on the host CPU, double precision (measured)",
		"paper: DP narrows the kernel bar on the CPU far less than on the Cell because Nehalem's DP units are fully pipelined")
}

// fig12 measures CellNPDP against the TanNPDP-style baseline.
func fig12[E interface{ ~float32 | ~float64 }](cfg Config, build func(int) *tri.RowMajor[E], tile int, title, paperNote string) (*stats.Table, error) {
	t := stats.NewTable(title, "n", "TanNPDP (s)", "CellNPDP (s)", "speedup")
	for _, n := range cfg.measuredSizes() {
		src := build(n)
		tan := src.Clone()
		var err error
		tTan := timeIt(func() {
			_, err = baseline.Solve(tan, baseline.Options{Workers: cfg.workers(), Tile: tile})
		})
		if err != nil {
			return nil, err
		}
		tt := tri.ToTiled(src, tile)
		tCell := timeIt(func() {
			_, err = npdp.SolveParallel(tt, npdp.ParallelOptions{Workers: cfg.workers(), SchedSide: 1})
		})
		if err != nil {
			return nil, err
		}
		if !tri.Equal[E](tan, tri.ToRowMajor(tt)) {
			return nil, fmt.Errorf("fig12: engines disagree at n=%d", n)
		}
		t.AddRow(fmt.Sprintf("%d", n), stats.Seconds(tTan), stats.Seconds(tCell), stats.Ratio(tTan/tCell))
	}
	t.AddNote("%s", paperNote)
	return t, nil
}

// Fig12a regenerates Figure 12(a): execution time vs the state-of-the-art
// fully optimized algorithm, single precision.
func Fig12a(cfg Config) (*stats.Table, error) {
	return fig12(cfg, cfg.chainF32, paperTile(npdp.Single),
		"Figure 12(a) — CellNPDP vs TanNPDP on the host CPU, single precision (measured)",
		"paper average 44x with SSE; the Go gap isolates layout + computing-block structure + scheduling")
}

// Fig12b regenerates Figure 12(b): the double-precision comparison.
func Fig12b(cfg Config) (*stats.Table, error) {
	return fig12(cfg, cfg.chainF64, paperTile(npdp.Double),
		"Figure 12(b) — CellNPDP vs TanNPDP on the host CPU, double precision (measured)",
		"paper average 28x")
}

// Fig13 regenerates Figure 13: CellNPDP performance at n=4096 single
// precision across memory-block sizes and SPE counts, normalized to the
// 32 KB / one-SPE baseline (larger is faster).
func Fig13(cfg Config) (*stats.Table, error) {
	speCounts := []int{1, 2, 4, 8, 16}
	t := stats.NewTable("Figure 13 — memory-block size × SPEs, n=4096 single precision (speedup over 32 KB / 1 SPE)",
		"block size", "1 SPE", "2 SPEs", "4 SPEs", "8 SPEs", "16 SPEs")
	base := 0.0
	for _, kb := range []int{32, 16, 8, 4} {
		tile, err := npdp.DefaultTile(kb*1024, npdp.Single)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d KB (tile %d)", kb, tile)}
		for _, spes := range speCounts {
			mach, err := cellsim.NewMachine(cellsim.QS20())
			if err != nil {
				return nil, err
			}
			res, err := npdp.ModelCell(4096, tile, npdp.Single, mach, cellOpts(npdp.Single, spes))
			if err != nil {
				return nil, err
			}
			if base == 0 {
				base = res.Seconds // 32 KB, 1 SPE
			}
			row = append(row, stats.Ratio(base/res.Seconds))
		}
		t.AddRow(row...)
	}
	t.AddNote("smaller blocks shrink DMA transfers (lower efficiency) and increase re-fetch volume (∝ 1/√blockBytes), reproducing Figure 13's decay")
	return t, nil
}
