// Package npdp implements the paper's NPDP engines end to end:
//
//   - SolveSerial: the original Figure 1 algorithm on the row-major
//     triangular layout — the reference every other engine must match
//     bit for bit.
//   - SolveTiled: the serial tiled algorithm of Figure 4(b) on the new
//     data layout — the two-stage memory-block procedure on the
//     resolved stage-1 kernel, run by the block executor on one worker.
//   - SolveParallel (parallel.go): the tier-2 parallel procedure run on
//     real goroutine workers with the task-queue model of Section IV-B.
//   - SolvePagedCtx (paged.go): the same procedure out of core, over the
//     crash-consistent block pager.
//   - SolveCell (cell.go): the full CellNPDP algorithm of Figure 8
//     executed on the simulated Cell processor (internal/cellsim),
//     producing modeled QS20 time plus DMA and instruction statistics.
//
// Tiled, Parallel and Paged share one block executor (exec.go): one
// two-stage block procedure over a BlockStore, one task-pool runner, and one
// heal ladder (heal.go), which the Cell engine's post-DES recompute
// also runs.
package npdp

import (
	"context"
	"fmt"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// SolveSerial runs the original NPDP flowchart (Figure 1) in place:
//
//	for j = 0..n-1
//	  for i = j-1..0
//	    for k = i..j-1
//	      d[i][j] = min(d[i][j], d[i][k] + d[k][j])
//
// It returns the number of scalar relaxations, n(n²-1)/6... exactly the
// count of executed innermost iterations.
func SolveSerial[E semiring.Elem](m *tri.RowMajor[E]) int64 {
	relax, _ := SolveSerialCtx(context.Background(), m)
	return relax
}

// SolveSerialCtx is SolveSerial with cancellation checked once per table
// column — the serial engine's analogue of the parallel pool's
// task-dispatch granularity. On cancellation it returns ctx.Err() with
// the relaxations performed so far; the table is left partially solved.
func SolveSerialCtx[E semiring.Elem](ctx context.Context, m *tri.RowMajor[E]) (int64, error) {
	n := m.Len()
	var relax int64
	//npdp:dispatch
	for j := 0; j < n; j++ {
		if err := ctx.Err(); err != nil {
			return relax, err
		}
		for i := j - 1; i >= 0; i-- {
			v := m.At(i, j)
			for k := i; k < j; k++ {
				if w := m.At(i, k) + m.At(k, j); w < v {
					v = w
				}
			}
			m.Set(i, j, v)
			relax += int64(j - i)
		}
	}
	return relax, nil
}

// SolveTiled runs the tiled flowchart (Figure 4(b)) serially on the new
// data layout, in place: memory blocks are computed one at a time with
// stage 1 (middle-tile min-plus products on the solve's resolved stage-1
// kernel, no inner dependences) and stage 2 (inner dependences via
// computing blocks). The tile side must be a positive multiple of
// kernel.CB.
func SolveTiled[E semiring.Elem](t *tri.Tiled[E]) (kernel.Stats, error) {
	return SolveTiledCtx(context.Background(), t)
}

// SolveTiledCtx is SolveTiled with cancellation checked once per memory
// block. It is the parallel engine's block executor on one worker, so
// its results and kernel.Stats are identical to SolveParallel's. On
// cancellation the table is left partially solved.
func SolveTiledCtx[E semiring.Elem](ctx context.Context, t *tri.Tiled[E]) (kernel.Stats, error) {
	return SolveParallelCtx(ctx, t, ParallelOptions{Workers: 1})
}

// Precision identifies the element width of a run, following the paper's
// single-/double-precision split.
type Precision int

// The two precisions the paper evaluates.
const (
	Single Precision = iota
	Double
)

// String returns "single" or "double".
func (p Precision) String() string {
	if p == Double {
		return "double"
	}
	return "single"
}

// ElemBytes returns the element size in bytes.
func (p Precision) ElemBytes() int {
	if p == Double {
		return 8
	}
	return 4
}

// DefaultTile returns the paper's tile side for a given memory-block byte
// budget (32 KB in Section VI-A): the largest multiple of kernel.CB whose
// square block fits the budget.
func DefaultTile(blockBytes int, p Precision) (int, error) {
	if blockBytes < p.ElemBytes()*kernel.CB*kernel.CB {
		return 0, fmt.Errorf("npdp: block budget %dB cannot hold even one %d×%d computing block", blockBytes, kernel.CB, kernel.CB)
	}
	side := kernel.CB
	for (side+kernel.CB)*(side+kernel.CB)*p.ElemBytes() <= blockBytes {
		side += kernel.CB
	}
	return side, nil
}
