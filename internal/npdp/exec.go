package npdp

import (
	"context"
	"sync/atomic"
	"unsafe"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// BlockStore is where a solve's memory blocks live while the executor
// computes them — the host-side analogue of the SPE local-store
// discipline. A block is pinned by Acquire for exactly its use window
// and unpinned by Release; Prefetch hints the next operand pair (the
// double-buffered DMA); Complete marks a block final once its stage 2
// is done, before its pin drops. *pager.Pager implements it out of
// core; residentStore adapts an in-memory *tri.Tiled.
type BlockStore[E semiring.Elem] interface {
	Tile() int
	Acquire(bi, bj int) ([]E, error)
	Release(bi, bj int)
	Prefetch(bi, bj int)
	Complete(bi, bj int) error
}

// residentStore is the trivial BlockStore over an in-memory table: every
// block is always resident, so Acquire is a slice return, it never
// fails, and the rest are no-ops.
type residentStore[E semiring.Elem] struct{ t *tri.Tiled[E] }

func (s residentStore[E]) Tile() int                       { return s.t.Tile() }
func (s residentStore[E]) Acquire(bi, bj int) ([]E, error) { return s.t.Block(bi, bj), nil }
func (residentStore[E]) Release(int, int)                  {}
func (residentStore[E]) Prefetch(int, int)                 {}
func (residentStore[E]) Complete(int, int) error           { return nil }

// operands returns the block pair feeding step k of memory block
// (bi, bj): the middle-tile pair (bi,k), (k,bj) for stage 1 (k < bj),
// and the two diagonal blocks (bi,bi), (bj,bj) for stage 2 (k == bj).
func operands(bi, bj, k int) (a, b [2]int) {
	if k < bj {
		return [2]int{bi, k}, [2]int{k, bj}
	}
	return [2]int{bi, bi}, [2]int{bj, bj}
}

// execBlock runs the paper's two-stage SPE procedure (Figure 8 steps
// 8–12) for memory block (bi, bj): stage 1 folds every middle-tile
// product into the block through the solve's stage-1 kernel, then stage
// 2 resolves the block's inner dependences against its two diagonal
// blocks. Each operand is pinned only for its use window and the next
// pair is prefetched while the current product runs. The destination
// stays pinned throughout and is completed before its pin drops, so an
// out-of-core store never evicts a half-computed block. The task graph
// guarantees every operand is final before this runs, so concurrent
// tasks only ever read them.
func execBlock[E semiring.Elem](s BlockStore[E], bi, bj int, mul Stage1Func[E]) (kernel.Stats, error) {
	ts := s.Tile()
	var st kernel.Stats
	d, err := s.Acquire(bi, bj)
	if err != nil {
		return st, err
	}
	defer s.Release(bi, bj)
	if bi == bj {
		st = kernel.Stage2Diag(d, ts)
		return st, s.Complete(bi, bj)
	}
	for k := bi + 1; k <= bj; k++ {
		if k < bj {
			na, nb := operands(bi, bj, k+1)
			s.Prefetch(na[0], na[1])
			s.Prefetch(nb[0], nb[1])
		}
		oa, ob := operands(bi, bj, k)
		a, err := s.Acquire(oa[0], oa[1])
		if err != nil {
			return st, err
		}
		b, err := s.Acquire(ob[0], ob[1])
		if err != nil {
			s.Release(oa[0], oa[1])
			return st, err
		}
		if k < bj {
			st.Add(mul(d, a, b, ts))
		} else {
			st.Add(kernel.Stage2OffDiag(d, a, b, ts))
		}
		s.Release(oa[0], oa[1])
		s.Release(ob[0], ob[1])
	}
	return st, s.Complete(bi, bj)
}

// execTask runs execBlock over every memory block of one scheduling
// task in the dependence-safe MemoryBlockOrder (columns ascending, rows
// descending — Section IV-A's intra-task order).
func execTask[E semiring.Elem](s BlockStore[E], task sched.Task, mul Stage1Func[E]) (kernel.Stats, error) {
	var st kernel.Stats
	for _, mb := range task.MemoryBlockOrder() {
		b, err := execBlock(s, mb[0], mb[1], mul)
		st.Add(b)
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// ComputeTask runs one scheduling task on an in-memory table. It is the
// unit of work a cluster worker executes for one dispatch: given a table
// holding the task's operand blocks (its row, column and diagonal
// neighbours) at their final values, the produced blocks are
// bit-identical to the same task computed by the single-process
// engines, because it is the same code path they call.
func ComputeTask[E semiring.Elem](t *tri.Tiled[E], task sched.Task, mul Stage1Func[E]) kernel.Stats {
	st, _ := execTask[E](residentStore[E]{t}, task, mul) // a resident store never fails
	return st
}

// paddedStats is one worker's kernel.Stats padded out to two cache lines
// so neighboring workers' accumulators never share a line (128 bytes also
// clears the adjacent-line prefetcher's pairing).
type paddedStats struct {
	kernel.Stats
	_ [128 - unsafe.Sizeof(kernel.Stats{})]byte
}

// executor is the one task-pool runner of the in-process engines: the task
// graph, the store its blocks live in, the solve's stage-1 kernel, and
// the resident engines' fault layer. Parallel runs it with its worker
// count, Tiled with one worker, Paged over a *pager.Pager, and the Cell
// engine's post-DES recompute with one worker; heal.go's ladder drives
// its rounds.
type executor[E semiring.Elem] struct {
	graph   *sched.Graph
	store   BlockStore[E]
	mul     Stage1Func[E]
	workers int
	// retry, inject and seal are per-task retry of transient failures,
	// the per-attempt fault injector, and block sealing; the zero value
	// of each disables it.
	retry  resilience.RetryPolicy
	inject *resilience.Injector
	seal   *sealer[E]
	// onDone, when non-nil, hears every completion (the checkpointer).
	onDone func(sched.Task)
	// done is the completion state the heal ladder re-dispatches from.
	done  []atomic.Bool
	stats []paddedStats
	// attemptBase offsets injector attempt numbers per round so a
	// recomputed task re-rolls fresh fault plans instead of replaying
	// the round that corrupted it. Written only between rounds; each
	// round's worker goroutines are created after the write.
	attemptBase int
}

func newExecutor[E semiring.Elem](graph *sched.Graph, store BlockStore[E], mul Stage1Func[E], workers int) *executor[E] {
	return &executor[E]{
		graph:   graph,
		store:   store,
		mul:     mul,
		workers: workers,
		done:    make([]atomic.Bool, len(graph.Tasks)),
		stats:   make([]paddedStats, workers),
	}
}

// exec is the pool's task body. Stats accumulate locally and merge only
// on success, so a retried attempt never double-counts work. Retrying a
// task in place is safe because every relaxation is an idempotent
// monotone min toward the same fixed point.
func (x *executor[E]) exec(worker int, task sched.Task) error {
	if x.seal != nil {
		if err := x.seal.maybeAudit(); err != nil {
			return err
		}
	}
	var local kernel.Stats
	sealAttempt := x.attemptBase
	attempts, err := x.retry.Do(func(attempt int) error {
		sealAttempt = x.attemptBase + attempt
		if err := x.inject.Apply(task.ID, sealAttempt); err != nil {
			return err
		}
		var err error
		local, err = execTask(x.store, task, x.mul)
		return err
	})
	if err != nil {
		return &resilience.TaskError{
			TaskID: task.ID, Bi: task.Bi, Bj: task.Bj,
			Worker: worker, Attempts: attempts, Err: err,
		}
	}
	if x.seal != nil {
		x.seal.sealTask(task, sealAttempt)
	}
	x.stats[worker].Add(local)
	return nil
}

func (x *executor[E]) taskDone(task sched.Task) {
	if x.onDone != nil {
		x.onDone(task)
	}
	x.done[task.ID].Store(true)
}

// run executes one round on the lock-free pool, skipping the tasks
// completed marks done.
func (x *executor[E]) run(ctx context.Context, round int, completed []bool) error {
	x.attemptBase = round * (x.retry.MaxRetries + 1)
	return sched.RunPoolCtx(ctx, x.graph, x.workers, sched.PoolRunOptions{
		Completed:  completed,
		OnTaskDone: x.taskDone,
	}, x.exec)
}

// completed snapshots the completion state for the next round's
// pre-notification.
func (x *executor[E]) completed() []bool {
	out := make([]bool, len(x.done))
	for i := range x.done {
		out[i] = x.done[i].Load()
	}
	return out
}

// total sums the per-worker stats.
func (x *executor[E]) total() kernel.Stats {
	var st kernel.Stats
	for i := range x.stats {
		st.Add(x.stats[i].Stats)
	}
	return st
}
