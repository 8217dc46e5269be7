package npdp

import (
	"context"
	"fmt"

	"cellnpdp/internal/cellsim"
	"cellnpdp/internal/kernel"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/trace"
	"cellnpdp/internal/tri"
)

// CellOptions configures a CellNPDP run on the simulated Cell processor.
type CellOptions struct {
	// Workers is the number of SPEs used (≤ the machine's SPE count).
	Workers int
	// SchedSide is the scheduling-block side in memory blocks (≥ 1).
	SchedSide int
	// UseSIMD selects the SPE procedure's SIMD computing-block kernel;
	// false models the new-data-layout-only ablation, where every
	// relaxation runs as scalar SPU code (Figure 10(a)'s NDL bar).
	UseSIMD bool
	// DoubleBuffer overlaps stage-1 prefetch DMA with computation; false
	// is the ablation that waits for each transfer before computing.
	DoubleBuffer bool
	// CBStepCycles is the modeled cycles of one software-pipelined
	// computing-block step (pipeline.CBStepCyclesSP/DP; the paper's 54
	// for single precision).
	CBStepCycles float64
	// ScalarRelaxCycles is the modeled cycles of one scalar relaxation
	// on an SPU (latency-bound scalar code on a SIMD core).
	ScalarRelaxCycles float64
	// CallOverheadCycles is the per-kernel-call control cost on the SPU
	// (loop prologue, DMA issue, tag-status reads, software-pipeline
	// ramp). Smaller memory blocks mean more calls for the same work —
	// part of Section VI-D's small-block penalty. 0 uses the default.
	CallOverheadCycles float64
	// Stage1 overrides the functional stage-1 kernel, as in
	// ParallelOptions.Stage1. The modeled cycle accounting is unchanged
	// — the SPE's Table I kernel is what the simulator times — so this
	// only affects host-side wall time of functional runs. Timing-only
	// runs (ModelCell) ignore it.
	Stage1 perfmodel.Kernel
	// RowMajorDMA models the prior works' tiling on the row-major
	// layout (Figure 4): a block's rows are scattered in memory, so each
	// block fetch issues one DMA command per row instead of one for the
	// whole block — "we have to use a number of DMA commands to prefetch
	// each row" (Section III). The ablation behind the NDL contribution.
	RowMajorDMA bool
	// Trace, when non-nil, records per-SPE compute/wait/task intervals
	// for Gantt rendering (internal/trace).
	Trace *trace.Log
	// Inject is the deterministic fault injector. The cell engine honors
	// only FaultCorrupt plans (silent post-completion bit flips in main
	// memory); error/panic/delay model host-side concerns the serial
	// discrete-event dispatcher has no analogue for. Timing-only runs
	// (ModelCell) ignore it — there is no data to corrupt.
	Inject *resilience.Injector
	// Seal enables block sealing with a post-solve audit, so silent
	// corruption is detected rather than returned. Implied by Heal.
	// Functional runs only.
	Seal bool
	// Heal enables poisoned-cone recovery: cone tasks are restored from
	// the pristine snapshot and recomputed serially with the same
	// kernels, outside the DES — the modeled time and DMA statistics
	// deliberately exclude recovery work, which on real hardware would
	// run at PPE convenience after the timed solve.
	Heal bool
	// HealAttempts bounds heal rounds; 0 means DefaultHealAttempts.
	HealAttempts int
	// HealStats, when non-nil, receives the sealing layer's counters.
	HealStats *resilience.HealStats
}

// DefaultCallOverheadCycles is the modeled per-kernel-call control cost.
const DefaultCallOverheadCycles = 1000

// DefaultScalarRelaxCycles is the modeled cost of one scalar
// d[i][j] = min(d[i][j], d[i][k]+d[k][j]) on an SPU: the dependent
// load→add→compare→select→store chain is latency-bound on scalar data
// (quadword loads plus element rotates), about 27 cycles.
const DefaultScalarRelaxCycles = 27

// DefaultScalarRelaxCyclesDP is the double-precision scalar relaxation
// cost: the chain additionally carries a 13-cycle DPFP add and compare,
// each stalling both pipelines for 6 cycles (Section VI-A.5).
const DefaultScalarRelaxCyclesDP = 55

// ScalarRelaxCyclesFor returns the default scalar relaxation cost for a
// precision.
func ScalarRelaxCyclesFor(p Precision) float64 {
	if p == Double {
		return DefaultScalarRelaxCyclesDP
	}
	return DefaultScalarRelaxCycles
}

// Validate checks the options against a machine.
func (o CellOptions) Validate(m *cellsim.Machine) error {
	if o.Workers <= 0 || o.Workers > len(m.SPEs) {
		return fmt.Errorf("npdp: Workers = %d outside [1, %d]", o.Workers, len(m.SPEs))
	}
	if o.SchedSide <= 0 {
		return fmt.Errorf("npdp: SchedSide must be positive, got %d", o.SchedSide)
	}
	if o.CBStepCycles <= 0 {
		return fmt.Errorf("npdp: CBStepCycles must be positive, got %g", o.CBStepCycles)
	}
	if o.ScalarRelaxCycles <= 0 {
		return fmt.Errorf("npdp: ScalarRelaxCycles must be positive, got %g", o.ScalarRelaxCycles)
	}
	if o.CallOverheadCycles < 0 {
		return fmt.Errorf("npdp: CallOverheadCycles must be non-negative, got %g", o.CallOverheadCycles)
	}
	return nil
}

// callOverhead returns the per-call control cost, defaulted.
func (o CellOptions) callOverhead() float64 {
	if o.CallOverheadCycles > 0 {
		return o.CallOverheadCycles
	}
	return DefaultCallOverheadCycles
}

// CellResult reports a CellNPDP run.
type CellResult struct {
	Seconds float64      // modeled wall time on the simulated machine
	Stats   kernel.Stats // kernel work performed
	DMA     cellsim.DMAStats
	Busy    []float64 // per-SPE busy virtual seconds
}

// ParallelEfficiency returns Σ busy / (workers × makespan).
func (r CellResult) ParallelEfficiency() float64 {
	if r.Seconds == 0 || len(r.Busy) == 0 {
		return 0
	}
	var sum float64
	for _, b := range r.Busy {
		sum += b
	}
	return sum / (float64(len(r.Busy)) * r.Seconds)
}

// computeCycles converts kernel work into modeled SPU cycles under the
// selected compute mode.
func (o CellOptions) computeCycles(st kernel.Stats) float64 {
	if o.UseSIMD {
		return float64(st.CBSteps)*o.CBStepCycles + float64(st.ScalarRelax)*o.ScalarRelaxCycles
	}
	return float64(st.Relaxations()) * o.ScalarRelaxCycles
}

// cellEngine carries one run's shared state. data is nil in timing-only
// runs (paper-scale modeling), in which case kernels are skipped and the
// analytic work counts stand in.
type cellEngine[E semiring.Elem] struct {
	ctx       context.Context
	data      *tri.Tiled[E]
	tile      int
	blocks    int
	elemBytes int
	machine   *cellsim.Machine
	opts      CellOptions
	stats     kernel.Stats
	// heal recomputes healed cones after the DES on the block executor
	// with one worker; nil unless sealing is on and data is present.
	heal      *executor[E]
	workerBuf []*speBuffers[E] // per-worker buffer sets, allocated on first task
	// mul is the functional stage-1 kernel, resolved once per solve by
	// SolveCellCtx — hoisted out of computeMB's //npdp:dispatch loop so
	// selection never runs per middle tile. nil in timing-only runs.
	mul Stage1Func[E]
}

func (e *cellEngine[E]) blockBytes() int { return e.tile * e.tile * e.elemBytes }

// speBuffers is the Section III six-buffer layout: the block being
// computed, two double-buffered pairs of dependence blocks, and a spare
// that lets the L/R prefetch for stage 2 start while the last stage-1
// pair is still in use.
type speBuffers[E semiring.Elem] struct {
	d    *cellsim.Buffer[E]
	a, b [2]*cellsim.Buffer[E]
	aux  *cellsim.Buffer[E]
}

func (e *cellEngine[E]) allocBuffers(spe *cellsim.SPE) (*speBuffers[E], error) {
	n := e.tile * e.tile
	bufs := &speBuffers[E]{}
	var err error
	alloc := func() *cellsim.Buffer[E] {
		if err != nil {
			return nil
		}
		var b *cellsim.Buffer[E]
		b, err = cellsim.Alloc[E](spe, n, e.elemBytes)
		return b
	}
	bufs.d = alloc()
	bufs.a[0], bufs.b[0] = alloc(), alloc()
	bufs.a[1], bufs.b[1] = alloc(), alloc()
	bufs.aux = alloc()
	if err != nil {
		bufs.free()
		return nil, fmt.Errorf("npdp: tile %d does not fit the six-buffer local-store layout: %w", e.tile, err)
	}
	return bufs, nil
}

func (b *speBuffers[E]) free() {
	for _, buf := range []*cellsim.Buffer[E]{b.d, b.a[0], b.b[0], b.a[1], b.b[1], b.aux} {
		if buf != nil {
			buf.Free()
		}
	}
}

// DMA tag groups used by the SPE procedure.
const (
	tagD    = 0 // the block being computed
	tagPair = 1 // stage-1 dependence pairs: tagPair+0 and tagPair+1
	tagLR   = 3 // the two diagonal blocks for stage 2
	tagPut  = 4 // write-back
)

// blockHome returns the memory channel block (bi, bj) is homed on: the
// table is interleaved block-wise across the chips' memories, so with two
// chips roughly half of every SPE's fetches are remote.
func (e *cellEngine[E]) blockHome(bi, bj int) int {
	channels := e.machine.Config.MemChannels
	if channels <= 1 {
		return 0
	}
	// Dense block id without needing the data layout.
	id := bi*(2*e.blocks-bi+1)/2 + (bj - bi)
	return id % channels
}

// getBlock issues the DMA fetching memory block (bi, bj) into buf (or a
// timing-only transfer when the engine has no data). Under RowMajorDMA
// the same bytes arrive as one command per scattered row.
func (e *cellEngine[E]) getBlock(spe *cellsim.SPE, buf *cellsim.Buffer[E], bi, bj, tag int) error {
	if e.opts.RowMajorDMA {
		spe.GetTimedScattered(e.blockBytes(), e.tile, tag, e.blockHome(bi, bj))
		if e.data != nil {
			// Functional copy still moves the whole block (values are
			// identical; only the command accounting differs).
			copy(buf.Data, e.data.Block(bi, bj))
		}
		return nil
	}
	if e.data == nil {
		spe.GetTimedHomed(e.blockBytes(), tag, e.blockHome(bi, bj))
		return nil
	}
	return buf.GetHomed(e.data.Block(bi, bj), tag, e.blockHome(bi, bj))
}

// putBlock issues the write-back DMA of the computed block.
func (e *cellEngine[E]) putBlock(spe *cellsim.SPE, buf *cellsim.Buffer[E], bi, bj, tag int) error {
	if e.data == nil {
		spe.PutTimedHomed(e.blockBytes(), tag, e.blockHome(bi, bj))
		return nil
	}
	return buf.PutHomed(e.data.Block(bi, bj), tag, e.blockHome(bi, bj))
}

// wait advances the SPE past a tag group's completion, recording any
// stall as a DMA-wait interval.
func (e *cellEngine[E]) wait(spe *cellsim.SPE, tag int) {
	before := spe.Clock
	spe.WaitTag(tag)
	e.opts.Trace.Add(spe.ID, trace.KindDMAWait, before, spe.Clock, "tag")
}

// advance moves the SPE's clock by a computation, recording the interval.
func (e *cellEngine[E]) advance(spe *cellsim.SPE, cycles float64, label string) {
	before := spe.Clock
	spe.AdvanceCycles(cycles)
	e.opts.Trace.Add(spe.ID, trace.KindCompute, before, spe.Clock, label)
}

// computeMB runs the two-stage SPE procedure (Figure 8 steps 8–12) for
// memory block (bi, bj) on the given SPE, advancing its virtual clock by
// the modeled compute cycles and booking all DMA traffic.
func (e *cellEngine[E]) computeMB(spe *cellsim.SPE, bufs *speBuffers[E], bi, bj int) error {
	t := e.tile
	// The D buffer is reused across this task's memory blocks; the next
	// fetch into it must wait for the previous write-back to finish.
	e.wait(spe, tagPut)
	if bi == bj {
		if err := e.getBlock(spe, bufs.d, bj, bj, tagD); err != nil {
			return err
		}
		e.wait(spe, tagD)
		st := kernel.StatsStage2Diag(t)
		if e.data != nil {
			got := kernel.Stage2Diag(bufs.d.Data, t)
			if got != st {
				return fmt.Errorf("npdp: diagonal block stats mismatch: %+v vs analytic %+v", got, st)
			}
		}
		e.stats.Add(st)
		e.advance(spe, e.opts.computeCycles(st)+e.opts.callOverhead(), "diag")
		return e.putBlock(spe, bufs.d, bj, bj, tagPut)
	}

	mid := bj - bi - 1 // middle tiles feeding stage 1
	if err := e.getBlock(spe, bufs.d, bi, bj, tagD); err != nil {
		return err
	}
	// Prefetch the first stage-1 pair (or, if there is none, L and R).
	if mid > 0 {
		if err := e.getBlock(spe, bufs.a[0], bi, bi+1, tagPair); err != nil {
			return err
		}
		if err := e.getBlock(spe, bufs.b[0], bi+1, bj, tagPair); err != nil {
			return err
		}
	} else {
		if err := e.getBlock(spe, bufs.a[0], bi, bi, tagLR); err != nil {
			return err
		}
		if err := e.getBlock(spe, bufs.b[0], bj, bj, tagLR); err != nil {
			return err
		}
	}
	e.wait(spe, tagD)

	lr := 0 // buffer pair that will hold L and R for stage 2
	//npdp:dispatch
	for idx := 0; idx < mid; idx++ {
		// Long off-diagonal blocks run one stage-1 product per middle
		// tile; checking between double-buffer phases bounds the
		// cancellation latency by one product instead of a whole block.
		if err := e.ctx.Err(); err != nil {
			return err
		}
		cur := idx % 2
		nxt := 1 - cur
		e.wait(spe, tagPair+cur)
		// Prefetch the next pair — or L and R — into the other buffers.
		if idx+1 < mid {
			k := bi + idx + 2
			if err := e.getBlock(spe, bufs.a[nxt], bi, k, tagPair+nxt); err != nil {
				return err
			}
			if err := e.getBlock(spe, bufs.b[nxt], k, bj, tagPair+nxt); err != nil {
				return err
			}
		} else {
			lr = nxt
			if err := e.getBlock(spe, bufs.a[nxt], bi, bi, tagLR); err != nil {
				return err
			}
			if err := e.getBlock(spe, bufs.b[nxt], bj, bj, tagLR); err != nil {
				return err
			}
		}
		if !e.opts.DoubleBuffer {
			// Ablation: serialize the prefetch with the computation.
			e.wait(spe, tagPair+nxt)
			e.wait(spe, tagLR)
		}
		st := kernel.StatsMulMinPlus(t)
		if e.data != nil {
			// Values via the selected kernel (bit-identical to
			// MulMinPlus); cycle accounting stays the analytic Table I
			// figure above — the simulator models the SPE, not the host.
			e.mul(bufs.d.Data, bufs.a[cur].Data, bufs.b[cur].Data, t)
		}
		e.stats.Add(st)
		e.advance(spe, e.opts.computeCycles(st)+e.opts.callOverhead(), "mul")
	}

	e.wait(spe, tagLR)
	st := kernel.StatsStage2OffDiag(t)
	if e.data != nil {
		kernel.Stage2OffDiag(bufs.d.Data, bufs.a[lr].Data, bufs.b[lr].Data, t)
	}
	e.stats.Add(st)
	e.advance(spe, e.opts.computeCycles(st)+e.opts.callOverhead(), "stage2")
	return e.putBlock(spe, bufs.d, bi, bj, tagPut)
}

// run executes the full CellNPDP algorithm (Figure 8): the PPE procedure
// is the discrete-event dispatcher over the simplified task graph, the
// SPE procedure is computeMB over each task's memory blocks.
func (e *cellEngine[E]) run() (CellResult, error) {
	graph, err := sched.NewGraph(e.blocks, e.opts.SchedSide)
	if err != nil {
		return CellResult{}, err
	}
	if (e.opts.Seal || e.opts.Heal) && e.data != nil {
		e.heal = newExecutor[E](graph, residentStore[E]{e.data}, e.mul, 1)
		e.heal.seal = newSealer(graph, e.data, e.opts.Inject, 0, e.opts.HealStats, nil)
	}
	// Cost-aware urgencies: a task's priority is the most expensive
	// remaining dependence chain hanging off it (estimated from the
	// analytic kernel counts). List scheduling with these stays within a
	// few percent of the work bound; hop-count priorities lose ~20% when
	// tasks are few and uneven.
	taskCost := make([]float64, len(graph.Tasks))
	for i, task := range graph.Tasks {
		var cycles float64
		for _, mb := range task.MemoryBlockOrder() {
			cycles += e.opts.computeCycles(kernel.StatsMemoryBlock(e.tile, mb[0], mb[1]))
		}
		taskCost[i] = cycles / e.machine.Config.ClockHz
	}
	prio := make([]float64, len(graph.Tasks))
	var remaining func(id int) float64
	remaining = func(id int) float64 {
		if prio[id] > 0 {
			return prio[id]
		}
		best := 0.0
		for _, s := range graph.Tasks[id].Succs {
			if v := remaining(s); v > best {
				best = v
			}
		}
		prio[id] = taskCost[id] + best
		return prio[id]
	}
	for i := range graph.Tasks {
		remaining(i)
	}

	e.workerBuf = make([]*speBuffers[E], e.opts.Workers)
	var des sched.DESResult
	runDES := func() error {
		var err error
		des, err = sched.RunDESWithPriority(graph, e.opts.Workers, e.machine.Config.DispatchOverhead, prio, e.dispatch)
		for _, bufs := range e.workerBuf {
			if bufs != nil {
				bufs.free()
			}
		}
		return err
	}
	if e.heal == nil {
		err = runDES()
	} else {
		// The DES is round 0 of the heal ladder; recovery rounds run on
		// the block executor, functionally and outside the DES — the
		// modeled time and DMA statistics deliberately exclude recovery
		// work, which on real hardware would run at PPE convenience
		// after the timed solve. The recompute work counts into Stats.
		err = e.heal.solve(func(round int, completed []bool) error {
			if round == 0 {
				return runDES()
			}
			return e.heal.run(e.ctx, round, completed)
		}, nil, e.heal.seal.policy(e.opts.Heal, e.opts.HealAttempts))
		e.stats.Add(e.heal.total())
	}
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{
		Seconds: des.Makespan,
		Stats:   e.stats,
		DMA:     e.machine.Stats,
		Busy:    des.WorkerBusy,
	}, nil
}

// dispatch is the SPE procedure the DES issues each task to: computeMB
// over the task's memory blocks on the worker's SPE, then the write-back
// drain.
func (e *cellEngine[E]) dispatch(worker int, task sched.Task, start float64) (float64, error) {
	// Cancellation at task-dispatch granularity, mirroring the
	// goroutine pool: the DES stops issuing tasks mid-solve.
	if err := e.ctx.Err(); err != nil {
		return 0, err
	}
	spe := e.machine.SPEs[worker]
	if start < spe.Clock {
		return 0, fmt.Errorf("npdp: SPE %d dispatched at %g before its clock %g", worker, start, spe.Clock)
	}
	spe.Clock = start
	bufs := e.workerBuf[worker]
	if bufs == nil {
		var err error
		bufs, err = e.allocBuffers(spe)
		if err != nil {
			return 0, err
		}
		e.workerBuf[worker] = bufs
	}
	for _, mb := range task.MemoryBlockOrder() {
		if err := e.computeMB(spe, bufs, mb[0], mb[1]); err != nil {
			return 0, err
		}
	}
	before := spe.Clock
	spe.WaitAll()
	if e.heal != nil {
		// Write-backs drained: digest, apply any planned silent flip,
		// and seal. The DES runs on one goroutine, so the ordering needs
		// no synchronization here.
		e.heal.taskDone(task)
		e.heal.seal.sealTask(task, 0)
	}
	e.opts.Trace.Add(spe.ID, trace.KindDMAWait, before, spe.Clock, "drain")
	e.opts.Trace.Add(spe.ID, trace.KindTask, start, spe.Clock,
		fmt.Sprintf("(%d,%d)-(%d,%d)", task.RowLo, task.ColLo, task.RowHi-1, task.ColHi-1))
	return spe.Clock, nil
}

// SolveCell runs CellNPDP functionally on the simulated Cell: the DP
// table is computed in place (bit-identical to SolveSerial) while the
// simulator produces the modeled QS20 time and DMA statistics. The
// machine is reset first; it must not be shared with concurrent runs.
func SolveCell[E semiring.Elem](t *tri.Tiled[E], m *cellsim.Machine, opts CellOptions) (CellResult, error) {
	return SolveCellCtx(context.Background(), t, m, opts)
}

// SolveCellCtx is SolveCell with cancellation checked each time the
// discrete-event dispatcher issues a task to an SPE.
func SolveCellCtx[E semiring.Elem](ctx context.Context, t *tri.Tiled[E], m *cellsim.Machine, opts CellOptions) (CellResult, error) {
	if err := kernel.CheckTile(t.Tile()); err != nil {
		return CellResult{}, err
	}
	if err := opts.Validate(m); err != nil {
		return CellResult{}, err
	}
	m.Reset()
	// Stage-1 kernel selection is hoisted here — once per solve, never
	// inside computeMB's per-middle-tile dispatch loop.
	mul, err := ResolveStage1[E](opts.Stage1, t)
	if err != nil {
		return CellResult{}, err
	}
	var e E
	eng := &cellEngine[E]{
		ctx:       ctx,
		data:      t,
		tile:      t.Tile(),
		blocks:    t.Blocks(),
		elemBytes: elemBytes(e),
		machine:   m,
		opts:      opts,
		mul:       mul,
	}
	return eng.run()
}

// ModelCell runs CellNPDP in timing-only mode for an n-point problem:
// the same task graph, DMA schedule and cycle accounting as SolveCell,
// but no data is allocated or computed, so paper-scale sizes (Table II's
// n = 16384) model in milliseconds.
func ModelCell(n, tile int, prec Precision, m *cellsim.Machine, opts CellOptions) (CellResult, error) {
	if err := tri.CheckSize(n); err != nil {
		return CellResult{}, err
	}
	if err := kernel.CheckTile(tile); err != nil {
		return CellResult{}, err
	}
	if err := opts.Validate(m); err != nil {
		return CellResult{}, err
	}
	m.Reset()
	eng := &cellEngine[float32]{
		//nolint:npdplint(ctxdispatch) timing-only mode has no cancellation points; ModelCell deliberately has no Ctx twin
		ctx:       context.Background(),
		data:      nil,
		tile:      tile,
		blocks:    (n + tile - 1) / tile,
		elemBytes: prec.ElemBytes(),
		machine:   m,
		opts:      opts,
	}
	return eng.run()
}

// elemBytes returns the byte width of a semiring element.
func elemBytes(e any) int {
	switch e.(type) {
	case float64:
		return 8
	default:
		return 4
	}
}
