package npdp

import (
	"context"
	"fmt"
	"sync"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// ParallelOptions configures SolveParallel.
type ParallelOptions struct {
	// Workers is the number of concurrent goroutine workers — the host-CPU
	// counterpart of the paper's SPE count (16 on the QS20) and core count
	// (8 in Table III / Figure 10(b)). Required > 0.
	Workers int
	// SchedSide is the scheduling-block side in memory blocks (the paper's
	// g); 0 means 1 (one task per memory block). Negative values are
	// rejected.
	SchedSide int
	// FullDeps uses the unsimplified dependence graph (every left/below
	// task) instead of the paper's two-edge simplification — the
	// Section IV-B ablation.
	FullDeps bool
	// MutexPool routes scheduling through the mutex-guarded seed pool
	// (sched.RunPoolLocked) instead of the lock-free one — the
	// BenchmarkAblationLockfree baseline.
	MutexPool bool
	// Stage1 overrides stage-1 kernel selection. The zero value
	// (perfmodel.KernelAuto) consults the Section V calibration via
	// perfmodel.PickKernel once per solve; explicit KernelScalar /
	// KernelPanel / KernelVector pin a kernel for ablations.
	// KernelFourRussians is rejected (lattice DPs go through
	// zuker.MaxPairs, not the min-plus engines).
	Stage1 perfmodel.Kernel
	// Retry governs per-task retries of transient failures. Retrying a
	// memory-block task in place is safe because every relaxation is an
	// idempotent monotone min toward the same fixed point: the block's
	// dependences are final before the task starts, so recomputing over a
	// partially-updated block converges to bit-identical values. The zero
	// value never retries. Ignored under MutexPool.
	Retry resilience.RetryPolicy
	// Inject, when non-nil, is the deterministic fault-injection harness:
	// each (task, attempt) pair is independently faulted per its plan.
	// Ignored under MutexPool.
	Inject *resilience.Injector
	// Completed marks scheduler tasks (by ID, for the graph this solve
	// builds) already finished by an earlier run; the pool pre-notifies
	// them so only the remainder executes. The caller must have restored
	// those tasks' memory blocks into the table (resilience.Checkpoint
	// does both). Ignored under MutexPool.
	Completed []bool
	// CheckpointPath, when non-empty, enables periodic snapshots: after
	// every CheckpointEvery task completions (default 16) the completion
	// bitmap and all completed tasks' memory blocks are atomically written
	// to this file, and a final snapshot is written when the solve fails
	// part-way. Ignored under MutexPool.
	CheckpointPath string
	// CheckpointEvery is the snapshot period in completed tasks; 0 means
	// 16.
	CheckpointEvery int
	// Seal enables block sealing: every completed memory block is
	// digested into a lock-free CRC32C seal table and re-verified by a
	// post-solve audit (plus the online audit when AuditEvery > 0), so a
	// silent corruption is always detected, never returned as a wrong
	// answer. Costs one pristine table snapshot (2× table memory) while
	// the solve runs. Implied by Heal or AuditEvery > 0; ignored under
	// MutexPool.
	Seal bool
	// Heal enables poisoned-cone recovery on seal mismatch: the
	// corrupted block's task and its transitive successor cone are
	// restored from the pristine snapshot and re-dispatched, bounded by
	// HealAttempts rounds, then one pristine-restart fallback, then
	// *resilience.CorruptionError. Without Heal a detected corruption
	// errors immediately.
	Heal bool
	// HealAttempts bounds heal rounds; 0 means DefaultHealAttempts.
	HealAttempts int
	// AuditEvery runs the online seal audit every AuditEvery task
	// executions (0 disables it; the post-solve audit always runs when
	// sealing is on).
	AuditEvery int
	// HealStats, when non-nil, receives the sealing layer's counters.
	HealStats *resilience.HealStats
}

// SolveParallel runs the tier-2 parallel procedure (Section IV-B) on real
// goroutine workers: the lock-free task-queue model over scheduling
// blocks with the simplified two-dependence graph, each worker computing
// the memory blocks of its tasks with the two-stage SPE procedure
// (stage 1 on the register-blocked panel kernel). This is the engine
// behind the paper's CPU-platform numbers (Tables III, Figures
// 9(b)–12(b)); on the Cell itself the cellsim-backed SolveCell adds the
// local-store and DMA modeling.
func SolveParallel[E semiring.Elem](t *tri.Tiled[E], opts ParallelOptions) (kernel.Stats, error) {
	return SolveParallelCtx(context.Background(), t, opts)
}

// parallelCheckpointer serializes snapshot state behind one mutex: the
// mutex both orders concurrent OnTaskDone calls and establishes the
// happens-before that makes reading completed tasks' blocks race-free
// (each worker's block writes precede its OnTaskDone, which precedes any
// later snapshot under the same lock). Completed blocks are final, so a
// snapshot only ever reads immutable table regions.
type parallelCheckpointer[E semiring.Elem] struct {
	mu    sync.Mutex
	path  string
	every int
	meta  resilience.Meta
	graph *sched.Graph
	t     *tri.Tiled[E]
	done  []bool
	since int
	err   error // first snapshot failure; surfaced after the run
}

func (c *parallelCheckpointer[E]) taskDone(task sched.Task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[task.ID] = true
	if c.since++; c.since >= c.every {
		c.since = 0
		c.save()
	}
}

// save writes a snapshot of every completed task's memory blocks; the
// caller holds c.mu. After the first failure snapshots stop (the stored
// error is surfaced when the solve returns).
func (c *parallelCheckpointer[E]) save() {
	if c.err != nil {
		return
	}
	var blocks [][2]int
	for id, d := range c.done {
		if d {
			blocks = append(blocks, c.graph.Tasks[id].MemoryBlockOrder()...)
		}
	}
	if err := resilience.SaveCheckpointFile(c.path, c.meta, c.done, c.t, blocks); err != nil {
		c.err = err
	}
}

// reset marks tasks incomplete again after a heal rung restored their
// blocks, so later snapshots never record a reverted task as done.
func (c *parallelCheckpointer[E]) reset(ids []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		c.done[id] = false
	}
}

// final writes a last snapshot when the solve failed part-way (so resume
// never depends on the periodic boundary) and reports any snapshot error.
func (c *parallelCheckpointer[E]) final(solved bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !solved {
		c.save()
	}
	return c.err
}

// SolveParallelCtx is SolveParallel with the fault-tolerance layer wired
// in: context cancellation at task-dispatch granularity, per-task retry
// of transient failures, deterministic fault injection, checkpoint
// snapshots, and resume from a completion bitmap. Task failures surface
// as *resilience.TaskError carrying the task identity and attempt count.
// The MutexPool ablation bypasses all of it (plain locked pool).
func SolveParallelCtx[E semiring.Elem](ctx context.Context, t *tri.Tiled[E], opts ParallelOptions) (kernel.Stats, error) {
	if err := kernel.CheckTile(t.Tile()); err != nil {
		return kernel.Stats{}, err
	}
	if opts.Workers <= 0 {
		return kernel.Stats{}, fmt.Errorf("npdp: Workers must be positive, got %d", opts.Workers)
	}
	if opts.SchedSide < 0 {
		return kernel.Stats{}, fmt.Errorf("npdp: SchedSide must be non-negative, got %d", opts.SchedSide)
	}
	g := opts.SchedSide
	if g == 0 {
		g = 1
	}
	newGraph := sched.NewGraph
	if opts.FullDeps {
		newGraph = sched.NewFullGraph
	}
	graph, err := newGraph(t.Blocks(), g)
	if err != nil {
		return kernel.Stats{}, err
	}
	// Stage-1 kernel selection is hoisted here — once per solve, never
	// inside the per-block dispatch loops.
	mul, err := ResolveStage1[E](opts.Stage1, t)
	if err != nil {
		return kernel.Stats{}, err
	}
	x := newExecutor[E](graph, residentStore[E]{t}, mul, opts.Workers)
	if opts.MutexPool {
		// Ablation baseline: the mutex-guarded seed pool, without the
		// fault-tolerance plumbing.
		err = sched.RunPoolLocked(graph, opts.Workers, x.exec)
		return x.total(), err
	}
	x.retry, x.inject = opts.Retry, opts.Inject

	policy := healPolicy{detect: passErr}
	if opts.Seal || opts.Heal || opts.AuditEvery > 0 {
		x.seal = newSealer(graph, t, opts.Inject, opts.AuditEvery, opts.HealStats, opts.Completed)
		policy = x.seal.policy(opts.Heal, opts.HealAttempts)
	}

	var ck *parallelCheckpointer[E]
	if opts.CheckpointPath != "" {
		every := opts.CheckpointEvery
		if every <= 0 {
			every = 16
		}
		done := make([]bool, len(graph.Tasks))
		copy(done, opts.Completed)
		var e E
		ck = &parallelCheckpointer[E]{
			path:  opts.CheckpointPath,
			every: every,
			meta: resilience.Meta{
				N: t.Len(), Tile: t.Tile(), SchedSide: g,
				Tasks: len(graph.Tasks), ElemBytes: elemBytes(e),
			},
			graph: graph,
			t:     t,
			done:  done,
		}
		x.onDone = ck.taskDone
		policy.reset = ck.reset
	}

	err = x.solve(func(round int, completed []bool) error {
		return x.run(ctx, round, completed)
	}, opts.Completed, policy)
	st := x.total()
	if ck != nil {
		if ckErr := ck.final(err == nil); ckErr != nil && err == nil {
			err = fmt.Errorf("npdp: solve succeeded but checkpointing failed: %w", ckErr)
		}
	}
	return st, err
}
