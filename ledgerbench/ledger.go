package main

import (
	"context"
	"fmt"
	"time"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// The traced solve. It runs the Parallel engine's in-memory pipeline by
// calling each layer's public function in turn — tri.ToTiled, then
// sched.NewGraph and sched.RunPoolCtx over npdp.ComputeTask with a
// timing wrapper around the resolved stage-1 kernel, then tri.Copy —
// and times each call. Task bodies are timed per task and stage-1
// products per block product, never per computing block.

// workerLedger is one worker's share of a traced solve, padded so
// neighbouring workers' counters never share a cache line.
type workerLedger struct {
	busy, stage1, crc time.Duration
	stage1Calls       int64
	crcBytes          int64
	crcFold           uint32 // keeps every digest's result live
	stats             kernel.Stats
	_                 [128]byte
}

// layerSample is one traced solve, split by layer. busy, stage1 and crc
// are summed over workers.
type layerSample struct {
	wall, toTiled, copyBack, poolWall float64
	busy, stage1, crc                 float64
	stage1Calls, crcBytes             int64
	relax, bytesComputed              int64
	tasks, workers                    int
}

// ledgerSolve solves t in place through the layers above and returns the
// per-layer times. With seal set, every block a task completes is
// digested with resilience.BlockCRC, as the sealing engines do when Heal
// is on.
func ledgerSolve[E semiring.Elem](ctx context.Context, t *tri.RowMajor[E], tile, workers int, seal bool) (layerSample, error) {
	s := layerSample{workers: workers}
	start := time.Now()
	tt := tri.ToTiled(t, tile)
	s.toTiled = time.Since(start).Seconds()

	graph, err := sched.NewGraph(tt.Blocks(), 1)
	if err != nil {
		return s, err
	}
	mul, err := npdp.ResolveStage1[E](perfmodel.KernelAuto, tt)
	if err != nil {
		return s, err
	}
	elem := int64(elemBytes[E]())
	acc := make([]workerLedger, workers)
	exec := func(worker int, task sched.Task) error {
		a := &acc[worker]
		timed := func(c, x, y []E, ts int) kernel.Stats {
			t0 := time.Now()
			st := mul(c, x, y, ts)
			a.stage1 += time.Since(t0)
			a.stage1Calls++
			return st
		}
		t0 := time.Now()
		a.stats.Add(npdp.ComputeTask(tt, task, timed))
		t1 := time.Now()
		a.busy += t1.Sub(t0)
		if seal {
			for _, mb := range task.MemoryBlockOrder() {
				cells := tt.Block(mb[0], mb[1])
				a.crcFold ^= resilience.BlockCRC(cells)
				a.crcBytes += int64(len(cells)) * elem
			}
			a.crc += time.Since(t1)
		}
		return nil
	}
	poolStart := time.Now()
	err = sched.RunPoolCtx(ctx, graph, workers, sched.PoolRunOptions{}, exec)
	s.poolWall = time.Since(poolStart).Seconds()
	if err != nil {
		return s, err
	}
	copyStart := time.Now()
	tri.Copy[E](tri.Table[E](t), tt)
	s.copyBack = time.Since(copyStart).Seconds()
	s.wall = time.Since(start).Seconds()

	var st kernel.Stats
	for i := range acc {
		a := &acc[i]
		s.busy += a.busy.Seconds()
		s.stage1 += a.stage1.Seconds()
		s.crc += a.crc.Seconds()
		s.stage1Calls += a.stage1Calls
		s.crcBytes += a.crcBytes
		st.Add(a.stats)
	}
	s.tasks = len(graph.Tasks)
	s.relax = st.Relaxations()
	// Computed, not measured: each stage-1 product touches its C, A and
	// B tiles once, and each memory block's stage 2 touches the block
	// and its two diagonal tiles.
	tileBytes := int64(tile) * int64(tile) * elem
	m := int64(tt.Blocks())
	s.bytesComputed = 3*tileBytes*s.stage1Calls + 3*tileBytes*m*(m+1)/2
	return s, nil
}

// ledgerAgg sums traced solves for per-op reporting.
type ledgerAgg struct {
	ops                                 int
	toTiled, copyBack                   float64
	busy, stage1, crc                   float64
	capacity, residual, total           float64 // worker-seconds
	stage1Calls, crcBytes, relax, bytes int64
	tasks                               int
	walls                               []float64
}

func (l *ledgerAgg) add(s layerSample) {
	w := float64(s.workers)
	l.ops++
	l.walls = append(l.walls, s.wall)
	l.toTiled += s.toTiled
	l.copyBack += s.copyBack
	l.busy += s.busy
	l.stage1 += s.stage1
	l.crc += s.crc
	l.capacity += s.poolWall * w
	l.residual += (s.wall - s.toTiled - s.copyBack - s.poolWall) * w
	l.total += s.wall * w
	l.stage1Calls += s.stage1Calls
	l.crcBytes += s.crcBytes
	l.relax += s.relax
	l.bytes += s.bytesComputed
	l.tasks += s.tasks
}

// put writes the tri, sched, kernel and resilience metrics as per-op
// means. The ledger closes on wall × workers: conversion time counts
// for every worker (the others wait), the pool's worker-seconds split
// into stage 1, stage 2, CRC and scheduler idle time, and
// ledger.residual_frac is whatever is left (graph and kernel set-up).
func (l *ledgerAgg) put(vals map[string]float64) {
	if l.ops == 0 {
		return
	}
	n := float64(l.ops)
	vals["tri.to_tiled_s"] = l.toTiled / n
	vals["tri.copy_back_s"] = l.copyBack / n
	vals["sched.tasks"] = float64(l.tasks) / n
	if l.capacity > 0 {
		vals["sched.idle_frac"] = 1 - (l.busy+l.crc)/l.capacity
	}
	vals["kernel.stage1_s"] = l.stage1 / n
	vals["kernel.stage1_calls"] = float64(l.stage1Calls) / n
	vals["kernel.stage2_s"] = (l.busy - l.stage1) / n
	vals["kernel.relax"] = float64(l.relax) / n
	vals["kernel.bytes_computed"] = float64(l.bytes) / n
	vals["resilience.crc_s"] = l.crc / n
	vals["resilience.crc_bytes"] = float64(l.crcBytes) / n
	if l.total > 0 {
		vals["ledger.residual_frac"] = l.residual / l.total
	}
}

// balance prints the ledger identity for one traced run, in mean
// worker-seconds per op.
func (l *ledgerAgg) balance(name string) {
	if l.ops == 0 {
		return
	}
	n := float64(l.ops)
	conv := (l.total - l.capacity - l.residual) / n
	idle := (l.capacity - l.busy - l.crc) / n
	fmt.Printf("ledgerbench %s ledger per op (worker-seconds): wall×workers %.6f = conversion %.6f + stage1 %.6f + stage2 %.6f + crc %.6f + sched idle %.6f + residual %.6f\n",
		name, l.total/n, conv, l.stage1/n, (l.busy-l.stage1)/n, l.crc/n, idle, l.residual/n)
}
