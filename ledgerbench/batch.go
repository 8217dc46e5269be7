package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cellnpdp"
	"cellnpdp/internal/cachesim"
	"cellnpdp/internal/cluster"
	"cellnpdp/internal/kernel"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/pager"
	"cellnpdp/internal/tri"
)

// The three batch workloads solve the same seeded n = batchN single-
// precision chain instance with the Parallel engine, one caller running
// solves back to back on fresh copies made outside the timer. They
// differ only in where the table lives: in memory (incore), in a spill
// file with a quarter of the table resident (outofcore), or on a
// coordinator streaming blocks to workers over loopback TCP
// (cluster-loopback). The kernel work is identical, so a kernel gain
// shows on all three and a pager or wire gain on one.

// Shares of a traced run's time: untraced ops for the overhead
// baseline, the workload's own traced ops, then in-core traced solves
// of the same instance for the kernel layers.
const (
	untracedShare = 0.25
	tracedShare   = 0.45
)

// batchSetup builds the instance and its serial reference, setupReps
// times, and returns the median set-up time.
func batchSetup(cfg config) (*instance[float32], float64, error) {
	in, _, secs, err := timedSetup(setupReps, func() (*instance[float32], func(), error) {
		in, err := newInstance[float32](cfg.n, cfg.seed)
		return in, func() {}, err
	})
	return in, secs, err
}

// predicted is the Section V model's time for the batch instance.
func predicted(cfg config) (float64, error) {
	est, err := cellnpdp.EstimateSolve[float32](cfg.n, cellnpdp.Options{Workers: cfg.workers})
	return est.PredictedSeconds, err
}

// finishBatch turns an untraced closed loop into the end-to-end report.
func finishBatch(name string, t *tally, setupS float64, ls loopStats) (*report, error) {
	vals, err := endToEndValues(name, setupS, ls.secs, ls.relax, ls.timed, t)
	if err != nil {
		return nil, err
	}
	return newReport(t, endToEnd, vals), nil
}

// tracedLedger runs in-core traced solves of in for d and adds them to
// agg, verifying each.
func tracedLedger(ctx context.Context, cfg config, in *instance[float32], t *tally, d time.Duration, agg *ledgerAgg) error {
	tile, err := tileFor[float32]()
	if err != nil {
		return err
	}
	closedLoop(t, d, 3, func(i int) opResult {
		rm := in.src.Clone()
		debug.FreeOSMemory()
		s, err := ledgerSolve(ctx, rm, tile, cfg.workers, false)
		if err != nil {
			return opResult{err: err}
		}
		agg.add(s)
		if cfg.corrupts(i) {
			flipRowMajor(rm)
		}
		return opResult{secs: s.wall, relax: s.relax, mismatch: in.checkRowMajor(rm)}
	})
	return nil
}

// finishTraced adds the model and overhead metrics every traced batch
// run shares: untraced is the in-run untraced baseline, traced the
// workload's traced op times.
func finishTraced(cfg config, t *tally, vals map[string]float64, untraced, traced []float64) (*report, error) {
	pred, err := predicted(cfg)
	if err != nil {
		return nil, err
	}
	base := median(untraced)
	vals["perfmodel.pred_s"] = pred
	vals["perfmodel.ratio"] = base / pred
	if base > 0 {
		vals["trace.overhead_ratio"] = median(traced) / base
	}
	vals["trace.ops"] = float64(len(traced))
	return newReport(t, perLayer, vals), nil
}

func runIncore(ctx context.Context, cfg config, traced bool) (*report, error) {
	base := runtime.NumGoroutine()
	in, setupS, err := batchSetup(cfg)
	if err != nil {
		return nil, err
	}
	var t tally
	opts := cellnpdp.Options{Engine: cellnpdp.Parallel, Workers: cfg.workers}
	solve := func(i int) opResult {
		tbl := in.table.Clone()
		debug.FreeOSMemory()
		start := time.Now()
		res, err := cellnpdp.SolveCtx(ctx, tbl, opts)
		secs := time.Since(start).Seconds()
		if err != nil {
			return opResult{err: err}
		}
		if cfg.corrupts(i) {
			flipTable(tbl)
		}
		return opResult{secs: secs, relax: res.Relaxations, mismatch: in.check(tbl.At)}
	}
	if !traced {
		ls := closedLoop(&t, cfg.duration, minOps, solve)
		t.leak(settle(base, 5*time.Second))
		return finishBatch("incore", &t, setupS, ls)
	}
	untraced := closedLoop(&t, scale(cfg.duration, untracedShare), 3, solve)
	var agg ledgerAgg
	if err := tracedLedger(ctx, cfg, in, &t, scale(cfg.duration, 1-untracedShare), &agg); err != nil {
		return nil, err
	}
	t.leak(settle(base, 5*time.Second))
	vals := map[string]float64{}
	agg.put(vals)
	agg.balance("incore")
	return finishTraced(cfg, &t, vals, untraced.secs, agg.walls)
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// outOfCoreBudget is the resident budget of the outofcore workload: a
// quarter of the tiled table.
func outOfCoreBudget(cfg config) (int64, error) {
	est, err := cellnpdp.EstimateSolve[float32](cfg.n, cellnpdp.Options{Workers: cfg.workers})
	return est.TableBytes / 4, err
}

func runOutOfCore(ctx context.Context, cfg config, traced bool) (*report, error) {
	base := runtime.NumGoroutine()
	in, setupS, err := batchSetup(cfg)
	if err != nil {
		return nil, err
	}
	budget, err := outOfCoreBudget(cfg)
	if err != nil {
		return nil, err
	}
	var t tally
	solve := func(i int) opResult {
		dir, err := os.MkdirTemp(cfg.spillDir, "op-")
		if err != nil {
			return opResult{err: err}
		}
		defer os.RemoveAll(dir)
		opts := cellnpdp.Options{
			Engine:       cellnpdp.Parallel,
			Workers:      cfg.workers,
			MemoryBudget: budget,
			SpillPath:    filepath.Join(dir, "solve.npsp"),
		}
		tbl := in.table.Clone()
		debug.FreeOSMemory()
		start := time.Now()
		res, err := cellnpdp.SolveCtx(ctx, tbl, opts)
		secs := time.Since(start).Seconds()
		if err != nil {
			return opResult{err: err}
		}
		if cfg.corrupts(i) {
			flipTable(tbl)
		}
		return opResult{secs: secs, relax: res.Relaxations, mismatch: in.check(tbl.At)}
	}
	if !traced {
		ls := closedLoop(&t, cfg.duration, minOps, solve)
		t.leak(settle(base, 5*time.Second))
		return finishBatch("outofcore", &t, setupS, ls)
	}

	untraced := closedLoop(&t, scale(cfg.duration, untracedShare), 3, solve)
	var ps pagedAgg
	closedLoop(&t, scale(cfg.duration, tracedShare), 3, func(i int) opResult {
		rm := in.src.Clone()
		debug.FreeOSMemory()
		s, err := pagedSolve(ctx, cfg, rm, budget)
		if err != nil {
			return opResult{err: err}
		}
		ps.add(s)
		if cfg.corrupts(i) {
			flipRowMajor(rm)
		}
		return opResult{secs: s.wall, relax: s.relax, mismatch: in.checkRowMajor(rm)}
	})
	var agg ledgerAgg
	if err := tracedLedger(ctx, cfg, in, &t, scale(cfg.duration, 1-untracedShare-tracedShare), &agg); err != nil {
		return nil, err
	}
	t.leak(settle(base, 5*time.Second))
	vals := map[string]float64{}
	agg.put(vals)
	ps.put(vals, cfg, budget)
	vals["pager.overhead_s"] = median(ps.walls) - median(agg.walls)
	return finishTraced(cfg, &t, vals, untraced.secs, ps.walls)
}

// pagedSample is one traced out-of-core solve: the same steps the
// public API takes for a MemoryBudget solve, each timed.
type pagedSample struct {
	wall, toTiled, create, solve, materialize, close, copyBack float64
	relax                                                      int64
	stats                                                      pager.Stats
}

// pagedSolve solves rm in place out of core: tri.ToTiled, pager.Create,
// npdp.SolvePagedCtx, Pager.Materialize, Pager.Close and tri.Copy.
func pagedSolve(ctx context.Context, cfg config, rm *tri.RowMajor[float32], budget int64) (pagedSample, error) {
	var s pagedSample
	tile, err := tileFor[float32]()
	if err != nil {
		return s, err
	}
	dir, err := os.MkdirTemp(cfg.spillDir, "traced-")
	if err != nil {
		return s, err
	}
	defer os.RemoveAll(dir)
	// The frame count the public API derives from MemoryBudget: whole
	// frames (a tile plus its CRC trailer), at least three per worker
	// plus the two-deep prefetch.
	frameBytes := int64(tile)*int64(tile)*4 + 4
	frames := int(budget / frameBytes)
	if floor := cfg.workers*3 + 2; frames < floor {
		frames = floor
	}

	start := time.Now()
	tt := tri.ToTiled(rm, tile)
	t1 := time.Now()
	p, err := pager.Create(filepath.Join(dir, "solve.npsp"), tt, pager.Options{Frames: frames})
	t2 := time.Now()
	if err != nil {
		return s, err
	}
	tt = nil // the spill file's pristine region now holds the input
	st, err := npdp.SolvePagedCtx(ctx, p, npdp.PagedOptions{Workers: cfg.workers})
	t3 := time.Now()
	if err != nil {
		p.Close()
		return s, err
	}
	out := tri.NewTiled[float32](rm.Len(), tile)
	err = p.Materialize(out)
	t4 := time.Now()
	s.stats = p.Stats()
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	t5 := time.Now()
	if err != nil {
		return s, err
	}
	tri.Copy[float32](tri.Table[float32](rm), out)
	end := time.Now()

	s.wall = end.Sub(start).Seconds()
	s.toTiled = t1.Sub(start).Seconds()
	s.create = t2.Sub(t1).Seconds()
	s.solve = t3.Sub(t2).Seconds()
	s.materialize = t4.Sub(t3).Seconds()
	s.close = t5.Sub(t4).Seconds()
	s.copyBack = end.Sub(t5).Seconds()
	s.relax = st.Relaxations()
	return s, nil
}

// pagedAgg sums traced out-of-core solves.
type pagedAgg struct {
	samples []pagedSample
	walls   []float64
}

func (a *pagedAgg) add(s pagedSample) {
	a.samples = append(a.samples, s)
	a.walls = append(a.walls, s.wall)
}

// put writes the pager metrics as per-op means. The conversion steps
// around the pager overwrite the in-core ledger's tri metrics: on this
// workload they are the paged op's own.
func (a *pagedAgg) put(vals map[string]float64, cfg config, budget int64) {
	if len(a.samples) == 0 {
		return
	}
	n := float64(len(a.samples))
	var sum pagedSample
	var disk int64
	for _, s := range a.samples {
		sum.toTiled += s.toTiled
		sum.create += s.create
		sum.solve += s.solve
		sum.materialize += s.materialize
		sum.close += s.close
		sum.copyBack += s.copyBack
		sum.stats.SpilledBytes += s.stats.SpilledBytes
		sum.stats.FetchedBytes += s.stats.FetchedBytes
		sum.stats.PristineBytes += s.stats.PristineBytes
		sum.stats.Evictions += s.stats.Evictions
		sum.stats.Commits += s.stats.Commits
		if s.stats.ResidentPeak > sum.stats.ResidentPeak {
			sum.stats.ResidentPeak = s.stats.ResidentPeak
		}
		disk += s.stats.DiskBytes()
	}
	vals["tri.to_tiled_s"] = sum.toTiled / n
	vals["tri.copy_back_s"] = sum.copyBack / n
	vals["pager.create_s"] = sum.create / n
	vals["pager.solve_s"] = sum.solve / n
	vals["pager.materialize_s"] = sum.materialize / n
	vals["pager.close_s"] = sum.close / n
	vals["pager.spilled_bytes"] = float64(sum.stats.SpilledBytes) / n
	vals["pager.fetched_bytes"] = float64(sum.stats.FetchedBytes) / n
	vals["pager.pristine_bytes"] = float64(sum.stats.PristineBytes) / n
	vals["pager.evictions"] = float64(sum.stats.Evictions) / n
	vals["pager.commits"] = float64(sum.stats.Commits) / n
	vals["pager.resident_peak"] = float64(sum.stats.ResidentPeak)
	if bound := cachesim.IOLowerBound(cfg.n, 4, budget); bound > 0 {
		vals["pager.bound_ratio"] = float64(disk) / n / float64(bound)
	}
}

func runClusterLoopback(ctx context.Context, cfg config, traced bool) (*report, error) {
	base := runtime.NumGoroutine()
	tile, err := tileFor[float32]()
	if err != nil {
		return nil, err
	}
	type clusterInput struct {
		in    *instance[float32]
		tiled *tri.Tiled[float32]
	}
	ci, _, setupS, err := timedSetup(setupReps, func() (clusterInput, func(), error) {
		in, err := newInstance[float32](cfg.n, cfg.seed)
		if err != nil {
			return clusterInput{}, nil, err
		}
		return clusterInput{in: in, tiled: tri.ToTiled(in.src, tile)}, func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	// The coordinator reports no kernel counters; the relaxations a solve
	// completes are fixed by its geometry.
	var relax int64
	m := ci.tiled.Blocks()
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			relax += kernel.StatsMemoryBlock(tile, bi, bj).Relaxations()
		}
	}

	var t tally
	solve := func(meter *connMeter, st *cluster.Stats) func(i int) opResult {
		return func(i int) opResult {
			tt := ci.tiled.Clone()
			debug.FreeOSMemory()
			secs, err := clusterSolve(ctx, cfg, tt, meter, st)
			if err != nil {
				return opResult{err: err}
			}
			if err := settle(base, 2*time.Second); err != nil {
				return opResult{err: err}
			}
			if cfg.corrupts(i) {
				flipTiled(tt)
			}
			return opResult{secs: secs, relax: relax, mismatch: ci.in.checkTiled(tt)}
		}
	}
	if !traced {
		ls := closedLoop(&t, cfg.duration, minOps, solve(nil, nil))
		t.leak(settle(base, 5*time.Second))
		return finishBatch("cluster-loopback", &t, setupS, ls)
	}

	untraced := closedLoop(&t, scale(cfg.duration, untracedShare), 3, solve(nil, nil))
	var meter connMeter
	var st, sum cluster.Stats
	var walls []float64
	traceOp := solve(&meter, &st)
	closedLoop(&t, scale(cfg.duration, tracedShare), 3, func(i int) opResult {
		r := traceOp(i)
		if r.err == nil {
			walls = append(walls, r.secs)
			sum.Dispatched += st.Dispatched
			sum.BlocksStreamed += st.BlocksStreamed
			sum.BytesStreamed += st.BytesStreamed
			sum.StaleResults += st.StaleResults
		}
		return r
	})
	var agg ledgerAgg
	if err := tracedLedger(ctx, cfg, ci.in, &t, scale(cfg.duration, 1-untracedShare-tracedShare), &agg); err != nil {
		return nil, err
	}
	t.leak(settle(base, 5*time.Second))
	vals := map[string]float64{}
	agg.put(vals)
	if n := float64(len(walls)); n > 0 {
		vals["cluster.coordinate_s"] = mean(walls)
		vals["cluster.dispatched"] = float64(sum.Dispatched) / n
		vals["cluster.blocks_streamed"] = float64(sum.BlocksStreamed) / n
		vals["cluster.bytes_streamed"] = float64(sum.BytesStreamed) / n
		vals["cluster.stale_results"] = float64(sum.StaleResults) / n
		vals["cluster.conn_read_bytes"] = float64(meter.readBytes.Load()) / n
		vals["cluster.conn_write_bytes"] = float64(meter.writeBytes.Load()) / n
		vals["cluster.conn_read_s"] = time.Duration(meter.readNanos.Load()).Seconds() / n
		vals["cluster.conn_write_s"] = time.Duration(meter.writeNanos.Load()).Seconds() / n
		vals["cluster.overhead_s"] = median(walls) - median(agg.walls)
	}
	return finishTraced(cfg, &t, vals, untraced.secs, walls)
}

// clusterSolve solves tt with cluster.Coordinate on a fresh loopback
// listener and cfg.workers cluster.RunWorker goroutines, and returns the
// coordinator's wall time. The listener is opened and the workers are
// started before the timer; Coordinate closes the listener, and every
// worker has returned before clusterSolve does. With a meter, workers
// dial through connections that count bytes and time reads and writes;
// with st, the coordinator's counters land there.
func clusterSolve(ctx context.Context, cfg config, tt *tri.Tiled[float32], meter *connMeter, st *cluster.Stats) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	wopts := cluster.WorkerOptions{}
	if meter != nil {
		wopts.Dial = meter.dial
	}
	errs := make([]error, cfg.workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := wopts
			o.Name = fmt.Sprintf("w%d", w)
			errs[w] = cluster.RunWorker(wctx, ln.Addr().String(), o)
		}(w)
	}
	if st != nil {
		*st = cluster.Stats{}
	}
	start := time.Now()
	err = cluster.Coordinate(ctx, ln, tt, cluster.Options{Shards: cfg.workers, Stats: st})
	secs := time.Since(start).Seconds()
	if err != nil {
		cancel() // workers would otherwise keep redialing a closed listener
	}
	wg.Wait()
	if err != nil {
		return 0, err
	}
	for w, werr := range errs {
		if werr != nil {
			return 0, fmt.Errorf("worker w%d: %w", w, werr)
		}
	}
	return secs, nil
}

// connMeter counts the bytes workers move over their coordinator
// connections and the time they spend in Read and Write (reads include
// waiting for the next dispatch).
type connMeter struct {
	readBytes, writeBytes atomic.Int64
	readNanos, writeNanos atomic.Int64
}

func (m *connMeter) dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, m: m}, nil
}

// meteredConn is a net.Conn whose Read and Write are counted and timed.
// Its deadline setters pass straight through to the inner connection and
// also record the deadline, which Read and Write re-arm before each call
// so the I/O visibly runs under the regime its caller set (re-arming the
// same deadline leaves the connection's behaviour unchanged).
type meteredConn struct {
	net.Conn
	m               *connMeter
	readDL, writeDL atomic.Int64 // UnixNano; 0 means no deadline
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func fromUnixNano(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (c *meteredConn) SetDeadline(t time.Time) error {
	c.readDL.Store(unixNano(t))
	c.writeDL.Store(unixNano(t))
	return c.Conn.SetDeadline(t)
}

func (c *meteredConn) SetReadDeadline(t time.Time) error {
	c.readDL.Store(unixNano(t))
	return c.Conn.SetReadDeadline(t)
}

func (c *meteredConn) SetWriteDeadline(t time.Time) error {
	c.writeDL.Store(unixNano(t))
	return c.Conn.SetWriteDeadline(t)
}

func (c *meteredConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(fromUnixNano(c.readDL.Load())); err != nil {
		return 0, err
	}
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.m.readNanos.Add(int64(time.Since(start)))
	c.m.readBytes.Add(int64(n))
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(fromUnixNano(c.writeDL.Load())); err != nil {
		return 0, err
	}
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.m.writeNanos.Add(int64(time.Since(start)))
	c.m.writeBytes.Add(int64(n))
	return n, err
}
