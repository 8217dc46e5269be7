package npdp

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/kernel"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

// executorCase is one engine configuration of the differential test.
type executorCase[E semiring.Elem] struct {
	name string
	// sameStats requires the run's kernel.Stats to equal the tiled
	// engine's (heal-on runs add recompute work, so they are exempt).
	sameStats bool
	solve     func(t *testing.T, tt *tri.Tiled[E]) (kernel.Stats, error)
}

func parallelCase[E semiring.Elem](name string, opts ParallelOptions) executorCase[E] {
	return executorCase[E]{name, !opts.Heal, func(_ *testing.T, tt *tri.Tiled[E]) (kernel.Stats, error) {
		return SolveParallel(tt, opts)
	}}
}

func cellCase[E semiring.Elem](name string, opts CellOptions) executorCase[E] {
	return executorCase[E]{name, !opts.Heal, func(t *testing.T, tt *tri.Tiled[E]) (kernel.Stats, error) {
		mach, err := cellsim.NewMachine(cellsim.QS20())
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveCell(tt, mach, opts)
		return res.Stats, err
	}}
}

// pagedFloorCase solves out of core at the smallest working set the
// paged API admits for the worker count: each worker pins a destination
// and one operand pair, and two prefetches may be in flight.
func pagedFloorCase[E semiring.Elem](workers int) executorCase[E] {
	return executorCase[E]{"paged-floor", true, func(t *testing.T, tt *tri.Tiled[E]) (kernel.Stats, error) {
		p, err := pager.Create(filepath.Join(t.TempDir(), "solve.npsp"), tt, pager.Options{Frames: 3*workers + 2})
		if err != nil {
			return kernel.Stats{}, err
		}
		defer p.Close()
		st, err := SolvePagedCtx(context.Background(), p, PagedOptions{Workers: workers})
		if err != nil {
			return st, err
		}
		if p.Stats().SpilledBlocks == 0 {
			t.Errorf("paged-floor: %d frames for %d blocks but nothing spilled", 3*workers+2, tt.Blocks()*(tt.Blocks()+1)/2)
		}
		return st, p.Materialize(tt)
	}}
}

// firstBitDiff returns the first cell whose bits differ between a and b
// (Float32bits/Float64bits: ±0 and NaN payloads count).
func firstBitDiff[E semiring.Elem](a, b *tri.RowMajor[E]) (int, int, bool) {
	bits := func(v E) uint64 {
		if x, ok := any(v).(float32); ok {
			return uint64(math.Float32bits(x))
		}
		return math.Float64bits(float64(v))
	}
	n := a.Len()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if bits(a.At(i, j)) != bits(b.At(i, j)) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// checkExecutorDifferential runs every engine on the block executor, plus
// the Cell DES, over one ragged instance (n = tile·k+1, so the last
// block row and column are one cell wide) and demands bit-identity with
// SolveSerial, and equal kernel.Stats for the engines that do the same
// kernel work.
func checkExecutorDifferential[E semiring.Elem](t *testing.T, src *tri.RowMajor[E], tile int) {
	t.Helper()
	corrupt := func() *resilience.Injector { return corruptInjector(0.3, 5) }
	var parallelHeal, cellHeal resilience.HealStats
	cellHealOpts := cellOpts(3)
	cellHealOpts.Heal, cellHealOpts.Inject, cellHealOpts.HealStats = true, corrupt(), &cellHeal
	cases := []executorCase[E]{
		{"tiled", true, func(_ *testing.T, tt *tri.Tiled[E]) (kernel.Stats, error) { return SolveTiled(tt) }},
		parallelCase[E]("parallel-w1-g1", ParallelOptions{Workers: 1, SchedSide: 1}),
		parallelCase[E]("parallel-w1-g2", ParallelOptions{Workers: 1, SchedSide: 2}),
		parallelCase[E]("parallel-w3-g1", ParallelOptions{Workers: 3, SchedSide: 1}),
		parallelCase[E]("parallel-w3-g2", ParallelOptions{Workers: 3, SchedSide: 2}),
		pagedFloorCase[E](3),
		cellCase[E]("cell", cellOpts(3)),
		parallelCase[E]("parallel-heal", ParallelOptions{Workers: 3, SchedSide: 2, Heal: true, Inject: corrupt(), HealStats: &parallelHeal}),
		cellCase[E]("cell-heal", cellHealOpts),
	}
	ref := solveRef(src)
	var want kernel.Stats
	for _, c := range cases {
		tt := tri.ToTiled(src, tile)
		st, err := c.solve(t, tt)
		if err != nil {
			t.Fatalf("n=%d %s: %v", src.Len(), c.name, err)
		}
		if i, j, diff := firstBitDiff(ref, tri.ToRowMajor(tt)); diff {
			t.Fatalf("n=%d %s: bits differ from serial at (%d,%d)", src.Len(), c.name, i, j)
		}
		switch {
		case c.name == "tiled":
			want = st
		case c.sameStats && st != want:
			t.Errorf("n=%d %s: stats %+v != tiled %+v", src.Len(), c.name, st, want)
		}
	}
	if parallelHeal.CorruptBlocks == 0 || cellHeal.CorruptBlocks == 0 {
		t.Errorf("n=%d: injection healed nothing (parallel %+v, cell %+v)", src.Len(), parallelHeal, cellHeal)
	}
}

// TestExecutorDifferential is the block executor's differential test:
// Tiled, Parallel at 1 and 3 workers × SchedSide 1 and 2, Paged at the
// worker-floor budget and Cell, in f32 and f64, with heal-on Parallel
// and Cell runs under injected silent corruption.
func TestExecutorDifferential(t *testing.T) {
	const tile = 16
	n := tile*6 + 1
	checkExecutorDifferential(t, workload.Chain[float32](n, 11), tile)
	checkExecutorDifferential(t, workload.Dense[float32](n, 12), tile)
	checkExecutorDifferential(t, workload.Chain[float64](n, 13), tile)
	checkExecutorDifferential(t, workload.Dense[float64](n, 14), tile)
}
