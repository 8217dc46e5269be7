package npdp

import (
	"context"
	"errors"
	"fmt"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
)

// PagedOptions configures SolvePagedCtx.
type PagedOptions struct {
	// Workers is the number of concurrent goroutine workers. Required > 0.
	Workers int
	// Stage1 overrides stage-1 kernel selection, as in ParallelOptions;
	// resolved once per solve from the pager's geometry.
	Stage1 perfmodel.Kernel
	// Resume pre-completes every task whose memory blocks are all final in
	// the pager (the committed spill index recovered them), so a restart
	// after SIGKILL recomputes only the remainder.
	Resume bool
	// HealAttempts bounds page-corruption heal rounds (demote the corrupt
	// block's dependence cone to pristine and recompute); 0 means
	// DefaultHealAttempts.
	HealAttempts int
	// Logf, when non-nil, receives heal and recovery progress lines.
	Logf func(format string, args ...any)
}

// SolvePagedCtx runs the tier-2 parallel procedure out of core: the
// block executor with the pager as its BlockStore, so the table lives in
// the pager's spill file and only the working set is resident. It is the
// host-side analogue of the paper's SPE discipline —
// Acquire/Release windows are the local-store residency of a block,
// Prefetch of the next stage-1 operand pair is the double-buffered DMA
// that overlaps transfer with compute, and Complete seals a block's
// CRC32C exactly when its producing task finishes (blocks are immutable
// afterwards, so each is spilled at most once).
//
// The scheduling grain is fixed at one task per memory block (g = 1):
// the heal path demotes a corrupt block's dependence cone, and block
// granularity keeps that cone minimal.
//
// Robustness ladder (heal.go's, with detection by page-in and by
// Pager.Verify after a clean round): a spilled final block that pages
// in corrupt (torn write, bit flip, read fault) surfaces as
// *pager.ErrPageCorrupt; the solve demotes the block's
// transitive successor cone to pristine and recomputes it, bounded by
// HealAttempts rounds. A corrupt pristine block has no earlier version
// and fails the solve. ENOSPC degradation and the hard-ceiling
// *pager.ErrSpillSpace happen inside the pager and surface here unhealed
// (recomputing cannot create disk space).
//
// On success every block is final; the caller materializes the solved
// table with p.Materialize. Resume after SIGKILL is bit-identical to an
// uninterrupted solve because relaxations are idempotent monotone mins
// and a block recovered from the committed index is the same sealed
// bytes its task produced.
func SolvePagedCtx[E semiring.Elem](ctx context.Context, p *pager.Pager[E], opts PagedOptions) (kernel.Stats, error) {
	if err := kernel.CheckTile(p.Tile()); err != nil {
		return kernel.Stats{}, err
	}
	if opts.Workers <= 0 {
		return kernel.Stats{}, fmt.Errorf("npdp: Workers must be positive, got %d", opts.Workers)
	}
	graph, err := sched.NewGraph(p.Blocks(), 1)
	if err != nil {
		return kernel.Stats{}, err
	}
	mul, err := ResolveStage1Shape[E](opts.Stage1, p.Tile(), p.Len())
	if err != nil {
		return kernel.Stats{}, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var completed []bool
	if opts.Resume {
		completed = make([]bool, len(graph.Tasks))
		recovered := 0
		for id, task := range graph.Tasks {
			final := true
			for _, mb := range task.MemoryBlockOrder() {
				if !p.IsFinal(mb[0], mb[1]) {
					final = false
					break
				}
			}
			if final {
				completed[id] = true
				recovered++
			}
		}
		if recovered > 0 {
			logf("npdp: paged resume: %d/%d tasks recovered from committed spill index", recovered, len(graph.Tasks))
		}
	}

	var (
		pe    *pager.ErrPageCorrupt
		stats resilience.HealStats
	)
	x := newExecutor[E](graph, p, mul, opts.Workers)
	err = x.solve(func(round int, completed []bool) error {
		return x.run(ctx, round, completed)
	}, completed, healPolicy{
		attempts: healRounds(true, opts.HealAttempts),
		detect: func(err error) ([][2]int, error) {
			if err == nil {
				// A clean round still owes the final slots it never read back.
				err = p.Verify()
			}
			if !errors.As(err, &pe) {
				return nil, err // success, cancellation, spill-space exhaustion, I/O setup failure
			}
			if pe.Pristine {
				// No earlier version to fall back to: the input itself is gone.
				return nil, fmt.Errorf("npdp: paged solve unrecoverable: %w", pe)
			}
			return [][2]int{{pe.Bi, pe.Bj}}, err
		},
		restore: p.Demote,
		giveUp: func(_ [][2]int, rounds int) error {
			return fmt.Errorf("npdp: paged solve gave up after %d heal rounds: %w", rounds, pe)
		},
		reset: func(cone []int) {
			logf("npdp: paged heal round %d: block (%d,%d) corrupt on page-in, demoted %d-task cone to pristine", stats.HealRounds, pe.Bi, pe.Bj, len(cone))
		},
		stats: &stats,
	})
	return x.total(), err
}
