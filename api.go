// Package cellnpdp is a Go reproduction of "Efficient Nonserial Polyadic
// Dynamic Programming on the Cell Processor" (Liu, Wang, Jiang, Li, Yang —
// IPDPS 2011).
//
// It solves the NPDP recurrence
//
//	d[i][j] = min(d[i][j], d[i][k] + d[k][j])   for i ≤ k < j
//
// over the upper triangle of an n-point table, with four interchangeable
// engines:
//
//   - Serial: the original Figure 1 loop (the correctness reference).
//   - Tiled: the serial tiled algorithm on the paper's block-sequential
//     "new data layout", using the two-stage memory-block procedure with
//     4×4 computing blocks — the Parallel engine's block executor run on
//     one worker with the resolved stage-1 kernel.
//   - Parallel: the tier-2 task-queue procedure on real goroutines —
//     the fastest way to actually solve big instances on the host.
//   - Cell: the full CellNPDP algorithm executed on a simulated IBM QS20
//     Cell blade (SPE local stores, asynchronous DMA, dual-issue pipeline
//     cost model), returning both the answer and the modeled hardware
//     time and DMA traffic.
//
// Applications built on the engines are exposed too: RNA secondary-
// structure prediction (FoldRNA — the Zuker bifurcation layer the paper
// targets), optimal matrix-chain parenthesization and optimal binary
// search trees.
package cellnpdp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/pipeline"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// Elem constrains table element types: float32 (the paper's single
// precision) or float64 (double).
type Elem = semiring.Elem

// Inf is the "no solution yet" initial value for unset cells.
func Inf[E Elem]() E { return semiring.Inf[E]() }

// Engine selects the solver backend.
type Engine int

// The available engines.
const (
	Serial Engine = iota
	Tiled
	Parallel
	Cell
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case Serial:
		return "serial"
	case Tiled:
		return "tiled"
	case Parallel:
		return "parallel"
	case Cell:
		return "cell"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Options configures Solve.
type Options struct {
	// Engine selects the backend; the zero value is Serial.
	Engine Engine
	// Workers is the worker count for Parallel (goroutines) and Cell
	// (SPEs, ≤ 16) — the paper's SPE count on the Cell and its CPU core
	// count in Table III / Figure 10(b). Defaults to GOMAXPROCS, capped
	// at 16 for Cell. The Parallel engine dispatches tasks through a
	// lock-free ready queue and computes stage 1 with register-blocked
	// panel kernels (a float32 fast path when the element type allows).
	Workers int
	// BlockBytes is the memory-block budget the tile side is derived
	// from; defaults to the paper's 32 KB.
	BlockBytes int
	// SchedSide is the scheduling-block side in memory blocks; defaults
	// to 1 (one task per memory block).
	SchedSide int
	// SingleChip runs the Cell engine on a one-chip, 8-SPE machine
	// instead of the dual-Cell QS20 blade.
	SingleChip bool
	// MaxRetries bounds per-task retries of transient failures in the
	// Parallel engine (exponential backoff, 1ms base). 0 never retries.
	MaxRetries int
	// FaultRate, when positive, turns on the deterministic fault-injection
	// harness in the Parallel engine: each task attempt independently
	// fails (as a retryable transient error) with this probability.
	FaultRate float64
	// FaultSeed seeds the injection plan; runs with the same seed fault
	// the same (task, attempt) pairs regardless of worker interleaving.
	FaultSeed int64
	// FaultKinds selects the faults injected, comma-separated from
	// "error", "panic", "delay", "corrupt"; empty means "error" (the
	// retryable default). "corrupt" silently flips one bit in a completed
	// memory block — block sealing (implied by selecting it) turns that
	// into a detected corruption, and Heal into a recovered one. The Cell
	// engine honors only "corrupt".
	FaultKinds string
	// Heal enables self-healing in the Parallel and Cell engines: every
	// completed memory block is sealed with a CRC32C digest, audits
	// re-verify the seals, and a mismatch triggers poisoned-cone
	// recompute (the corrupted block's task plus its transitive
	// successors) instead of a failed solve. Without Heal a detected
	// corruption is an error — never a silently wrong answer.
	Heal bool
	// HealAttempts bounds poisoned-cone recompute rounds; 0 uses the
	// engine default.
	HealAttempts int
	// AuditEvery makes the Parallel engine re-verify all block seals
	// every AuditEvery task executions (the online audit, which catches
	// corruption mid-solve); 0 audits post-solve only. Implies sealing.
	AuditEvery int
	// CheckpointPath, when non-empty, makes the Parallel engine
	// periodically snapshot completed work (and always snapshot on
	// failure) to this file for later resume.
	CheckpointPath string
	// CheckpointEvery is the snapshot period in completed tasks; 0 means
	// 16.
	CheckpointEvery int
	// ResumePath, when non-empty, resumes a Parallel solve from a
	// checkpoint written by an earlier run with identical geometry:
	// completed tasks' blocks are restored and only the remainder
	// executes.
	ResumePath string
	// NoFallback disables the Parallel→Tiled graceful degradation, so a
	// parallel compute failure surfaces instead of being recovered.
	NoFallback bool
	// MemoryBudget, when positive, runs the Tiled and Parallel engines
	// out of core: the NDL table lives in a crash-consistent spill file
	// and only a working set of roughly MemoryBudget bytes of blocks
	// stays resident (clamped up to the minimum the worker count needs).
	// The budget is soft — disk failures degrade to residency growth
	// rather than data loss. Incompatible with CheckpointPath/ResumePath
	// (the committed spill index is the checkpoint), FaultRate, and
	// AuditEvery; Serial and Cell reject it.
	MemoryBudget int64
	// SpillPath locates the spill data file (its index rides beside it at
	// SpillPath+".idx"). Empty means a private temp file removed after
	// the solve; a named path persists across SIGKILL for ResumeSpill.
	// Requires MemoryBudget > 0.
	SpillPath string
	// ResumeSpill resumes a paged solve from an existing spill file at
	// SpillPath: blocks recovered from the committed index are trusted
	// (CRC-verified on page-in) and only the remainder is recomputed.
	ResumeSpill bool
	// DiskFaultRate, when positive, turns on the deterministic disk-fault
	// injector on the pager's spill I/O (the out-of-core counterpart of
	// FaultRate). Requires MemoryBudget > 0.
	DiskFaultRate float64
	// DiskFaultSeed seeds the disk-fault plan.
	DiskFaultSeed int64
	// DiskFaultKinds selects injected disk faults, comma-separated from
	// "eio", "torn", "flip", "enospc"; empty means all four.
	DiskFaultKinds string
	// Logf, when non-nil, receives operational messages (degradation
	// reasons). Nil is silent; the reason is still recorded in the
	// Result.
	Logf func(format string, args ...any)
}

// Result reports a solve.
type Result struct {
	// Engine that ran.
	Engine Engine
	// Relaxations is the scalar-equivalent relaxation count performed.
	Relaxations int64
	// WallSeconds is the measured host wall-clock time of the solve.
	WallSeconds float64
	// ModeledSeconds is the simulated QS20 execution time (Cell engine
	// only, 0 otherwise).
	ModeledSeconds float64
	// DMABytes is the simulated local-store traffic (Cell engine only).
	DMABytes int64
	// Degraded reports that the Parallel engine failed and the solve was
	// recovered by the serial Tiled engine; DegradedReason is the
	// parallel failure that forced the switch.
	Degraded       bool
	DegradedReason string
	// ResumedTasks is the number of scheduler tasks restored from the
	// checkpoint instead of recomputed (Parallel resume only).
	ResumedTasks int
	// CorruptBlocks is the number of block-seal mismatches audits
	// detected (sealing engines only).
	CorruptBlocks int
	// HealRounds is the number of poisoned-cone recompute rounds run.
	HealRounds int
	// RecomputedTasks is the total scheduler tasks re-dispatched by
	// healing across all rounds.
	RecomputedTasks int
	// HealFallback reports that heal rounds were exhausted and the solve
	// restarted once from the pristine snapshot.
	HealFallback bool
	// Paged reports the solve ran out of core through the block pager;
	// PagerStats then carries the disk-traffic and recovery counters
	// (bytes spilled and fetched, faulted pages, heals, ENOSPC
	// degradations).
	Paged      bool
	PagerStats *pager.Stats
}

// Table is an n-point upper-triangular DP table. Cells (i, j) with
// 0 ≤ i ≤ j < n are stored; unset cells start at Inf and the diagonal
// at 0 (the ⊗ identity, so d[i][i]+d[i][j] never wins spuriously).
type Table[E Elem] struct {
	rm *tri.RowMajor[E]
}

// NewTable allocates an n-point table.
func NewTable[E Elem](n int) (*Table[E], error) {
	if err := tri.CheckSize(n); err != nil {
		return nil, err
	}
	rm := tri.NewRowMajor[E](n)
	for i := 0; i < n; i++ {
		rm.Set(i, i, 0)
	}
	return &Table[E]{rm: rm}, nil
}

// Len returns the problem size n.
func (t *Table[E]) Len() int { return t.rm.Len() }

// At returns cell (i, j); i ≤ j required.
func (t *Table[E]) At(i, j int) (E, error) {
	if err := tri.CheckCell(t.rm.Len(), i, j); err != nil {
		var zero E
		return zero, err
	}
	return t.rm.At(i, j), nil
}

// Set stores v into cell (i, j); i ≤ j required.
func (t *Table[E]) Set(i, j int, v E) error {
	if err := tri.CheckCell(t.rm.Len(), i, j); err != nil {
		return err
	}
	t.rm.Set(i, j, v)
	return nil
}

// Clone returns a deep copy.
func (t *Table[E]) Clone() *Table[E] { return &Table[E]{rm: t.rm.Clone()} }

// precisionOf maps the element type to the paper's precision enum.
func precisionOf[E Elem]() npdp.Precision {
	var e E
	if _, ok := any(e).(float64); ok {
		return npdp.Double
	}
	return npdp.Single
}

// cbStepCycles returns the modeled computing-block step cost for E.
func cbStepCycles[E Elem]() float64 {
	if precisionOf[E]() == npdp.Double {
		return pipeline.CBStepCyclesDP()
	}
	return pipeline.CBStepCyclesSP()
}

// Solve runs the NPDP recurrence in place on t with the selected engine.
// All engines produce bit-identical tables.
func Solve[E Elem](t *Table[E], opts Options) (*Result, error) {
	return SolveCtx(context.Background(), t, opts)
}

// SolveCtx is Solve under a context: cancellation and deadlines are
// honored by every engine at task-dispatch granularity (per column for
// Serial, per memory block for Tiled, per scheduler task for Parallel
// and Cell). A cancelled solve returns ctx's error and leaves the table
// partially solved; with a checkpoint configured, the completed portion
// is on disk for resume.
func SolveCtx[E Elem](ctx context.Context, t *Table[E], opts Options) (*Result, error) {
	if t == nil || t.rm == nil {
		return nil, fmt.Errorf("cellnpdp: nil table")
	}
	// Worker validation is uniform across all four engines: negative
	// counts are a configuration error everywhere, including Serial
	// (where the field is otherwise unused), so a typo never silently
	// selects a default.
	workers := opts.Workers
	if workers < 0 {
		return nil, fmt.Errorf("cellnpdp: Workers must be non-negative, got %d (engine %v)", workers, opts.Engine)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.FaultRate < 0 || opts.FaultRate > 1 {
		return nil, fmt.Errorf("cellnpdp: FaultRate must be in [0, 1], got %g", opts.FaultRate)
	}
	if opts.HealAttempts < 0 {
		return nil, fmt.Errorf("cellnpdp: HealAttempts must be non-negative, got %d", opts.HealAttempts)
	}
	if opts.AuditEvery < 0 {
		return nil, fmt.Errorf("cellnpdp: AuditEvery must be non-negative, got %d", opts.AuditEvery)
	}
	faultKinds, err := resilience.ParseFaultKinds(opts.FaultKinds)
	if err != nil {
		return nil, fmt.Errorf("cellnpdp: %w", err)
	}
	diskFaultKinds, err := pager.ParseDiskFaultKinds(opts.DiskFaultKinds)
	if err != nil {
		return nil, fmt.Errorf("cellnpdp: %w", err)
	}
	paged := opts.MemoryBudget != 0 || opts.SpillPath != "" || opts.ResumeSpill
	if paged {
		if opts.MemoryBudget <= 0 {
			return nil, fmt.Errorf("cellnpdp: SpillPath/ResumeSpill require a positive MemoryBudget, got %d", opts.MemoryBudget)
		}
		if opts.Engine != Tiled && opts.Engine != Parallel {
			return nil, fmt.Errorf("cellnpdp: MemoryBudget supports the Tiled and Parallel engines, not %v", opts.Engine)
		}
		if opts.CheckpointPath != "" || opts.ResumePath != "" {
			return nil, fmt.Errorf("cellnpdp: MemoryBudget is incompatible with CheckpointPath/ResumePath — the committed spill index is the checkpoint (resume with ResumeSpill)")
		}
		if opts.FaultRate > 0 || opts.AuditEvery > 0 {
			return nil, fmt.Errorf("cellnpdp: MemoryBudget is incompatible with FaultRate/AuditEvery (use DiskFaultRate; page-in CRC checks replace the seal audit)")
		}
		if opts.ResumeSpill && opts.SpillPath == "" {
			return nil, fmt.Errorf("cellnpdp: ResumeSpill requires SpillPath")
		}
	}
	if opts.DiskFaultRate < 0 || opts.DiskFaultRate > 1 {
		return nil, fmt.Errorf("cellnpdp: DiskFaultRate must be in [0, 1], got %g", opts.DiskFaultRate)
	}
	if opts.DiskFaultRate > 0 && !paged {
		return nil, fmt.Errorf("cellnpdp: DiskFaultRate requires MemoryBudget (there is no spill I/O to fault)")
	}
	blockBytes := opts.BlockBytes
	if blockBytes <= 0 {
		blockBytes = 32 * 1024
	}
	schedSide := opts.SchedSide
	if schedSide <= 0 {
		schedSide = 1
	}
	prec := precisionOf[E]()
	tile, err := npdp.DefaultTile(blockBytes, prec)
	if err != nil {
		return nil, err
	}
	res := &Result{Engine: opts.Engine}
	start := time.Now()
	switch opts.Engine {
	case Serial:
		relax, err := npdp.SolveSerialCtx(ctx, t.rm)
		if err != nil {
			return nil, err
		}
		res.Relaxations = relax
	case Tiled:
		if paged {
			relax, err := solvePaged(ctx, t, res, tile, 1, opts, diskFaultKinds)
			if err != nil {
				return nil, err
			}
			res.Relaxations = relax
			break
		}
		tt := tri.ToTiled(t.rm, tile)
		st, err := npdp.SolveTiledCtx(ctx, tt)
		if err != nil {
			return nil, err
		}
		res.Relaxations = st.Relaxations()
		tri.Copy[E](tri.Table[E](t.rm), tt)
	case Parallel:
		if paged {
			relax, err := solvePaged(ctx, t, res, tile, workers, opts, diskFaultKinds)
			if err != nil {
				return nil, err
			}
			res.Relaxations = relax
			break
		}
		relax, err := solveParallel(ctx, t, res, tile, workers, schedSide, opts, faultKinds)
		if err != nil {
			return nil, err
		}
		res.Relaxations = relax
	case Cell:
		cfg := cellsim.QS20()
		if opts.SingleChip {
			cfg = cellsim.SingleCell()
		}
		mach, err := cellsim.NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		if workers > len(mach.SPEs) {
			workers = len(mach.SPEs)
		}
		tt := tri.ToTiled(t.rm, tile)
		hs := &resilience.HealStats{}
		copts := npdp.CellOptions{
			Workers:           workers,
			SchedSide:         schedSide,
			UseSIMD:           true,
			DoubleBuffer:      true,
			CBStepCycles:      cbStepCycles[E](),
			ScalarRelaxCycles: npdp.ScalarRelaxCyclesFor(prec),
			Seal:              sealOn(opts, faultKinds),
			Heal:              opts.Heal,
			HealAttempts:      opts.HealAttempts,
			HealStats:         hs,
		}
		if opts.FaultRate > 0 {
			copts.Inject = &resilience.Injector{Rate: opts.FaultRate, Seed: opts.FaultSeed, Kinds: faultKinds}
		}
		cres, err := npdp.SolveCellCtx(ctx, tt, mach, copts)
		res.CorruptBlocks = hs.CorruptBlocks
		res.HealRounds = hs.HealRounds
		res.RecomputedTasks = hs.RecomputedTasks
		res.HealFallback = hs.CheckpointFallback
		if err != nil {
			return nil, err
		}
		res.Relaxations = cres.Stats.Relaxations()
		res.ModeledSeconds = cres.Seconds
		res.DMABytes = cres.DMA.TotalBytes()
		tri.Copy[E](tri.Table[E](t.rm), tt)
	default:
		return nil, fmt.Errorf("cellnpdp: unknown engine %v", opts.Engine)
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// solveParallel runs the Parallel engine with the fault-tolerance layer:
// optional resume from a checkpoint, retry and fault-injection policies,
// and — unless disabled — graceful degradation to the serial Tiled
// engine when the parallel compute layer fails. The row-major source is
// only overwritten after a successful solve, so degradation always
// restarts from clean input.
func solveParallel[E Elem](ctx context.Context, t *Table[E], res *Result, tile, workers, schedSide int, opts Options, faultKinds []resilience.FaultKind) (int64, error) {
	tt := tri.ToTiled(t.rm, tile)
	hs := &resilience.HealStats{}
	popts := npdp.ParallelOptions{
		Workers:         workers,
		SchedSide:       schedSide,
		CheckpointPath:  opts.CheckpointPath,
		CheckpointEvery: opts.CheckpointEvery,
		Seal:            sealOn(opts, faultKinds),
		Heal:            opts.Heal,
		HealAttempts:    opts.HealAttempts,
		AuditEvery:      opts.AuditEvery,
		HealStats:       hs,
	}
	if opts.MaxRetries > 0 {
		popts.Retry = resilience.RetryPolicy{
			MaxRetries: opts.MaxRetries,
			BaseDelay:  time.Millisecond,
			MaxDelay:   100 * time.Millisecond,
			Jitter:     true,
		}
	}
	if opts.FaultRate > 0 {
		popts.Inject = &resilience.Injector{Rate: opts.FaultRate, Seed: opts.FaultSeed, Kinds: faultKinds}
	}
	if opts.ResumePath != "" {
		// A crash between writing a snapshot temp and renaming it leaves
		// a `.tmp` orphan beside the checkpoint; resume is the natural
		// point to sweep them (the live checkpoint is never touched).
		if _, err := resilience.RemoveStaleTemps(opts.ResumePath); err != nil && opts.Logf != nil {
			opts.Logf("cellnpdp: %v", err)
		}
		ck, err := resilience.LoadCheckpointFile[E](opts.ResumePath)
		if err != nil {
			return 0, err
		}
		if err := ck.Matches(t.Len(), tile, schedSide); err != nil {
			return 0, err
		}
		graph, err := sched.NewGraph(tt.Blocks(), schedSide)
		if err != nil {
			return 0, err
		}
		if len(ck.Done) != len(graph.Tasks) {
			return 0, fmt.Errorf("cellnpdp: checkpoint records %d tasks, solve schedules %d", len(ck.Done), len(graph.Tasks))
		}
		// Every task the bitmap marks done must have all its memory
		// blocks in the snapshot, or resuming would trust stale cells.
		for id, d := range ck.Done {
			if !d {
				continue
			}
			for _, mb := range graph.Tasks[id].MemoryBlockOrder() {
				if !ck.HasBlock(mb[0], mb[1]) {
					return 0, fmt.Errorf("cellnpdp: checkpoint marks task %d done but lacks memory block (%d,%d)", id, mb[0], mb[1])
				}
			}
		}
		if err := ck.Apply(tt); err != nil {
			return 0, err
		}
		popts.Completed = ck.Done
		res.ResumedTasks = ck.DoneCount()
	}
	st, err := npdp.SolveParallelCtx(ctx, tt, popts)
	res.CorruptBlocks = hs.CorruptBlocks
	res.HealRounds = hs.HealRounds
	res.RecomputedTasks = hs.RecomputedTasks
	res.HealFallback = hs.CheckpointFallback
	if err != nil {
		if !degradable(err) || opts.NoFallback {
			return 0, err
		}
		if opts.Logf != nil {
			opts.Logf("cellnpdp: parallel engine failed (%v); degrading to tiled", err)
		}
		res.Degraded, res.DegradedReason = true, err.Error()
		tt = tri.ToTiled(t.rm, tile)
		st, err = npdp.SolveTiledCtx(ctx, tt)
		if err != nil {
			return 0, err
		}
	}
	tri.Copy[E](tri.Table[E](t.rm), tt)
	return st.Relaxations(), nil
}

// solvePaged runs a solve out of core through the crash-consistent block
// pager: the NDL table is spilled to a CRC-sealed, versioned file and
// only a MemoryBudget-sized working set stays resident. The row-major
// source is only overwritten after a successful solve (materialized from
// the pager), so any failure leaves the caller's table untouched and —
// with a named SpillPath — the committed spill index on disk for
// ResumeSpill.
func solvePaged[E Elem](ctx context.Context, t *Table[E], res *Result, tile, workers int, opts Options, diskFaultKinds []pager.DiskFaultKind) (int64, error) {
	res.Paged = true
	elem := int64(precisionOf[E]().ElemBytes())
	frameBytes := int64(tile)*int64(tile)*elem + 4
	frames := int(opts.MemoryBudget / frameBytes)
	// Each worker pins at most three blocks at once (destination plus one
	// operand pair), and the prefetch pipeline holds two more in flight —
	// below that floor the solve cannot make progress, so the budget is
	// soft there (the pager counts the overshoot in OverBudget).
	if minFrames := workers*3 + 2; frames < minFrames {
		if opts.Logf != nil {
			opts.Logf("cellnpdp: memory budget %d B is below the %d-worker minimum working set (%d B); clamping to %d frames",
				opts.MemoryBudget, workers, int64(minFrames)*frameBytes, minFrames)
		}
		frames = minFrames
	}
	popts := pager.Options{Frames: frames, Logf: opts.Logf}
	if opts.DiskFaultRate > 0 {
		popts.Faults = &pager.DiskFaults{Rate: opts.DiskFaultRate, Seed: opts.DiskFaultSeed, Kinds: diskFaultKinds}
	}
	path := opts.SpillPath
	if path == "" {
		dir, err := os.MkdirTemp("", "cellnpdp-spill-")
		if err != nil {
			return 0, fmt.Errorf("cellnpdp: spill temp dir: %w", err)
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "solve.npsp")
	}
	var p *pager.Pager[E]
	var err error
	if opts.ResumeSpill {
		p, err = pager.Open[E](path, popts)
		if err != nil {
			return 0, fmt.Errorf("cellnpdp: resume spill: %w", err)
		}
		if p.Len() != t.Len() || p.Tile() != tile {
			p.Close()
			return 0, fmt.Errorf("cellnpdp: spill file is an n=%d tile=%d instance, solve wants n=%d tile=%d", p.Len(), p.Tile(), t.Len(), tile)
		}
	} else {
		tt := tri.ToTiled(t.rm, tile)
		p, err = pager.Create(path, tt, popts)
		if err != nil {
			return 0, fmt.Errorf("cellnpdp: create spill: %w", err)
		}
	}
	defer p.Close()
	if opts.ResumeSpill {
		m := p.Blocks()
		for bi := 0; bi < m; bi++ {
			for bj := bi; bj < m; bj++ {
				if p.IsFinal(bi, bj) {
					res.ResumedTasks++
				}
			}
		}
	}
	st, err := npdp.SolvePagedCtx(ctx, p, npdp.PagedOptions{
		Workers:      workers,
		Resume:       opts.ResumeSpill,
		HealAttempts: opts.HealAttempts,
		Logf:         opts.Logf,
	})
	stats := p.Stats()
	res.PagerStats = &stats
	res.HealRounds = int(stats.PageHeals)
	if err != nil {
		// Close (deferred) commits the index, so a graceful failure with a
		// named SpillPath is resumable; the caller's table is untouched.
		return 0, err
	}
	out := tri.NewTiled[E](t.Len(), tile)
	if err := p.Materialize(out); err != nil {
		return 0, fmt.Errorf("cellnpdp: materialize solved table: %w", err)
	}
	// Refresh the stats after materialization — the final page-ins are
	// disk traffic the bound comparison must see.
	stats = p.Stats()
	res.PagerStats = &stats
	tri.Copy[E](tri.Table[E](t.rm), out)
	return st.Relaxations(), nil
}

// degradable reports whether a parallel failure is a compute-layer fault
// the Tiled engine can recover from (a task failure, panic, or detected
// block corruption — degradation restarts from the clean row-major
// source, so corrupted tiled state is discarded), as opposed to
// cancellation or a configuration/IO error that would fail there too.
func degradable(err error) bool {
	var te *resilience.TaskError
	var pe *resilience.PanicError
	var ce *resilience.CorruptionError
	return errors.As(err, &te) || errors.As(err, &pe) || errors.As(err, &ce)
}

// sealOn reports whether block sealing must be active for a solve:
// requested healing or online audits need seals to act on, and
// injecting silent corruption without seals would let a wrong answer
// escape undetected.
func sealOn(opts Options, kinds []resilience.FaultKind) bool {
	if opts.Heal || opts.AuditEvery > 0 {
		return true
	}
	if opts.FaultRate > 0 {
		for _, k := range kinds {
			if k == resilience.FaultCorrupt {
				return true
			}
		}
	}
	return false
}

// SolveEstimate is the admission-control view of a solve before it runs:
// how many bytes it will pin while in flight and how long the paper's
// Section V model predicts it will take. A server uses the byte figures
// to gate admission against a memory budget and the predicted time to
// shed requests whose deadline cannot be met (internal/serve does both).
type SolveEstimate struct {
	// N and Tile are the problem size and derived memory-block side.
	N, Tile int
	// Workers is the resolved worker count the prediction assumes.
	Workers int
	// TableBytes is the tiled (NDL) table's backing store: all upper-
	// triangle blocks of Tile² cells, diagonal padding included.
	TableBytes int64
	// StagingBytes is the row-major source table the solve reads from
	// and copies back into — resident alongside the tiled table.
	StagingBytes int64
	// CheckpointBytes bounds a full snapshot of the solve (header,
	// bitmap, every block), the extra footprint when checkpointing.
	CheckpointBytes int64
	// SpillFileBytes is the (sparse) on-disk size of a paged solve's
	// spill data file — pristine and final versions of every block plus
	// the header — the disk-side cost of running under MemoryBudget.
	SpillFileBytes int64
	// FootprintBytes is the total the solve pins: table + staging, plus
	// the checkpoint bound when Options.CheckpointPath is set. Under
	// MemoryBudget the tiled table's contribution is capped at the
	// budget — the resident working set replaces the full table.
	FootprintBytes int64
	// PredictedSeconds is T_All = max(T_M, T_C) from the Section V
	// model, instantiated with the solve's geometry and worker count.
	// The constants are the paper's QS20 figures, so treat it as a
	// relative oracle (an n³-faithful cost ordering) and scale it by a
	// measured calibration factor for absolute wall-clock predictions.
	PredictedSeconds float64
	// MemoryBound reports T_M > T_C under the model.
	MemoryBound bool
}

// EstimateSolve predicts the memory footprint and model time of a solve
// with the given options, without running it. The same defaulting as
// SolveCtx applies (workers, block budget, scheduling side).
func EstimateSolve[E Elem](n int, opts Options) (SolveEstimate, error) {
	if err := tri.CheckSize(n); err != nil {
		return SolveEstimate{}, err
	}
	workers := opts.Workers
	if workers < 0 {
		return SolveEstimate{}, fmt.Errorf("cellnpdp: Workers must be non-negative, got %d", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	blockBytes := opts.BlockBytes
	if blockBytes <= 0 {
		blockBytes = 32 * 1024
	}
	schedSide := opts.SchedSide
	if schedSide <= 0 {
		schedSide = 1
	}
	prec := precisionOf[E]()
	tile, err := npdp.DefaultTile(blockBytes, prec)
	if err != nil {
		return SolveEstimate{}, err
	}
	elem := int64(prec.ElemBytes())
	m := int64((n + tile - 1) / tile)
	nblocks := m * (m + 1) / 2
	ms := (m + int64(schedSide) - 1) / int64(schedSide)
	tasks := ms * (ms + 1) / 2
	blockCells := int64(tile) * int64(tile)
	est := SolveEstimate{
		N:            n,
		Tile:         tile,
		Workers:      workers,
		TableBytes:   nblocks * blockCells * elem,
		StagingBytes: int64(n) * int64(n+1) / 2 * elem,
	}
	// Checkpoint layout: 32-byte header + completion bitmap + every block
	// with its 8-byte coordinates + 4-byte CRC (see checkpoint.go).
	est.CheckpointBytes = 32 + (tasks+7)/8 + nblocks*(8+blockCells*elem) + 4
	est.SpillFileBytes = pager.SpillFileSize(n, tile, int(elem))
	est.FootprintBytes = est.TableBytes + est.StagingBytes
	if opts.MemoryBudget > 0 && opts.MemoryBudget < est.TableBytes {
		est.FootprintBytes = opts.MemoryBudget + est.StagingBytes
	}
	if opts.CheckpointPath != "" {
		est.FootprintBytes += est.CheckpointBytes
	}
	// Section V model with the solve's geometry: LocalStore is the
	// six-buffer inverse of the tile side, so BlockSide() == tile and
	// T_M/T_C reflect this run's blocking, not the paper's default.
	params := perfmodel.Params{
		ProblemSize: float64(n),
		LocalStore:  6 * float64(elem) * float64(tile) * float64(tile),
		ElemBytes:   float64(elem),
		Bandwidth:   2 * 25.6e9,
		Clock:       3.2e9,
		Cores:       float64(workers),
		CBSide:      4,
		CBCycles:    cbStepCycles[E](),
	}
	if err := params.Validate(); err != nil {
		return SolveEstimate{}, err
	}
	est.PredictedSeconds = params.Time()
	est.MemoryBound = !params.ComputeBound()
	return est, nil
}
