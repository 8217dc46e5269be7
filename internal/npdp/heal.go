package npdp

import (
	"errors"
	"sync"
	"sync/atomic"

	"cellnpdp/internal/resilience"
	"cellnpdp/internal/sched"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// DefaultHealAttempts bounds poisoned-cone recompute rounds when healing
// is enabled without an explicit budget. Each round re-rolls the fault
// injector at a fresh attempt base, so under sustained injection the
// corrupt set shrinks roughly geometrically; a generous bound lets rates
// like 5% converge while still guaranteeing termination.
const DefaultHealAttempts = 32

// healRounds is a solve's cone-recompute budget: attempts, defaulted
// to DefaultHealAttempts, when healing is on; none otherwise.
func healRounds(heal bool, attempts int) int {
	switch {
	case !heal:
		return 0
	case attempts <= 0:
		return DefaultHealAttempts
	}
	return attempts
}

// healPolicy is what an engine supplies to the heal ladder: how a
// round's corruption is detected and how a block is restored.
type healPolicy struct {
	// attempts bounds cone-recompute rounds; 0 skips that rung.
	attempts int
	// detect turns a round's outcome into the corrupt memory blocks to
	// heal, or — when there are none — the error the solve returns
	// (nil for a clean round).
	detect func(err error) (bad [][2]int, _ error)
	// restore reverts one memory block to its pristine content.
	restore func(bi, bj int)
	// restart, when non-nil, is the pristine-restart rung: the whole
	// table reverts and recomputes once more. Only a resident store
	// keeps the snapshot this needs.
	restart func()
	// giveUp builds the typed error once every rung is spent.
	giveUp func(bad [][2]int, rounds int) error
	// reset, when non-nil, hears the tasks a rung reverted.
	reset func(ids []int)
	stats *resilience.HealStats
}

// passErr is the detect of a solve without corruption detection: every
// outcome is final.
func passErr(err error) ([][2]int, error) { return nil, err }

// solve runs rounds until one comes back with nothing to heal, walking
// the escalation ladder on each detected corruption: bounded
// poisoned-cone recompute rounds (the corrupt blocks' tasks and their
// transitive successors are restored and re-dispatched), then the
// pristine restart, then the typed error. run executes one round over
// the tasks completed leaves unmarked; completed is the first round's
// resume bitmap.
func (x *executor[E]) solve(run func(round int, completed []bool) error, completed []bool, p healPolicy) error {
	for id, c := range completed {
		x.done[id].Store(c)
	}
	rounds, restarted := 0, false
	for round := 0; ; round++ {
		bad, err := p.detect(run(round, completed))
		if len(bad) == 0 {
			return err
		}
		p.stats.CorruptBlocks += len(bad)
		var ids []int
		switch {
		case rounds < p.attempts:
			rounds++
			ids = x.graph.Cone(tasksOf(x.graph, bad))
			for _, id := range ids {
				for _, mb := range x.graph.Tasks[id].MemoryBlockOrder() {
					p.restore(mb[0], mb[1])
				}
			}
			p.stats.HealRounds++
		case p.restart != nil && !restarted:
			restarted = true
			p.restart()
			ids = make([]int, len(x.graph.Tasks))
			for i := range ids {
				ids[i] = i
			}
			p.stats.CheckpointFallback = true
		default:
			return p.giveUp(bad, rounds)
		}
		p.stats.RecomputedTasks += len(ids)
		for _, id := range ids {
			x.done[id].Store(false)
		}
		if p.reset != nil {
			p.reset(ids)
		}
		completed = x.completed()
	}
}

// tasksOf returns the distinct tasks computing the given memory blocks,
// in first-seen order.
func tasksOf(g *sched.Graph, blocks [][2]int) []int {
	seen := make(map[int]bool)
	var ids []int
	for _, b := range blocks {
		id, _ := g.TaskID(b[0]/g.SchedSide, b[1]/g.SchedSide)
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// sealer is the resident engines' corruption detector: it seals every
// completed memory block with a CRC32C digest, audits seals online and
// post-solve, and restores blocks from a pristine snapshot for the heal
// ladder.
//
// The corruption model deliberately matches a silent hardware fault: the
// injected bit flip happens after a task's blocks are computed and
// CRC'd but before the seals are stored, so the flipped block itself is
// detectable (content ≠ seal) while every task that later consumed it
// seals its own garbage consistently — which is exactly why recovery
// must recompute the whole cone, not just the flipped block.
//
// Memory-ordering note for the concurrent (parallel-pool) engine: a
// task's block writes and bit flip all precede its Seal stores (atomic
// release); an auditor's Sealed load (acquire) precedes its block reads;
// unsealed blocks are never read by an audit. Audits therefore only ever
// read immutable bytes and the layer is race-free under the detector.
type sealer[E semiring.Elem] struct {
	graph *sched.Graph
	t     *tri.Tiled[E]
	// pristine is the table snapshot at sealer creation (initial values
	// plus any checkpoint-restored blocks) — the known-good state cone
	// tasks are reset to before recomputation. Relaxations are monotone
	// mins, so a recompute cannot undo a downward (value-shrinking)
	// corruption in place; restoring first is what makes healed results
	// bit-identical. Costs one extra table copy while sealing is on.
	pristine   *tri.Tiled[E]
	seals      *resilience.SealTable
	inject     *resilience.Injector
	stats      *resilience.HealStats
	auditEvery int
	execs      atomic.Int64
	auditMu    sync.Mutex
}

// newSealer snapshots the table and seals any blocks already restored by
// a resume (completed tasks), so audits cover resumed state too.
func newSealer[E semiring.Elem](graph *sched.Graph, t *tri.Tiled[E], inject *resilience.Injector,
	auditEvery int, stats *resilience.HealStats, completed []bool) *sealer[E] {
	if stats == nil {
		stats = &resilience.HealStats{}
	}
	m := t.Blocks()
	s := &sealer[E]{
		graph:      graph,
		t:          t,
		pristine:   t.Clone(),
		seals:      resilience.NewSealTable(m * (m + 1) / 2),
		inject:     inject,
		stats:      stats,
		auditEvery: auditEvery,
	}
	for id := range completed {
		if completed[id] {
			for _, mb := range graph.Tasks[id].MemoryBlockOrder() {
				s.seals.Seal(t.BlockID(mb[0], mb[1]), resilience.BlockCRC(t.Block(mb[0], mb[1])))
			}
		}
	}
	return s
}

// policy is the ladder of a sealed resident solve: with heal on, the
// cone-recompute rounds and then the pristine restart; with heal off,
// detected corruption goes straight to the typed error.
func (s *sealer[E]) policy(heal bool, attempts int) healPolicy {
	p := healPolicy{
		attempts: healRounds(heal, attempts),
		detect:   s.detect,
		restore:  s.restore,
		giveUp: func(bad [][2]int, rounds int) error {
			return s.corruption(bad, rounds)
		},
		stats: s.stats,
	}
	if heal {
		p.restart = s.restoreAll
	}
	return p
}

// sealTask digests and seals every memory block of a completed task,
// injecting the planned FaultCorrupt flip between the digest and the
// seal store so injected corruption is silent to the computation but
// visible to the next audit.
func (s *sealer[E]) sealTask(task sched.Task, attempt int) {
	mbs := task.MemoryBlockOrder()
	crcs := make([]uint32, len(mbs))
	for i, mb := range mbs {
		crcs[i] = resilience.BlockCRC(s.t.Block(mb[0], mb[1]))
	}
	if s.inject != nil && s.inject.Plan(task.ID, attempt) == resilience.FaultCorrupt {
		draw := s.inject.CorruptDraw(task.ID, attempt)
		mb := mbs[int((draw>>48)%uint64(len(mbs)))]
		resilience.CorruptBit(s.t.Block(mb[0], mb[1]), draw)
	}
	for i, mb := range mbs {
		s.seals.Seal(s.t.BlockID(mb[0], mb[1]), crcs[i])
	}
}

// maybeAudit is the online auditor piggybacked on task dispatch: every
// auditEvery-th task execution re-verifies all seals, surfacing a
// *resilience.CorruptionError as the task's failure so the pool aborts
// the run and the heal ladder takes over mid-solve.
func (s *sealer[E]) maybeAudit() error {
	if s.auditEvery <= 0 {
		return nil
	}
	if s.execs.Add(1)%int64(s.auditEvery) != 0 {
		return nil
	}
	if bad := s.audit(); len(bad) > 0 {
		return s.corruption(bad, 0)
	}
	return nil
}

// detect is the sealed solve's corruption detector: any outcome but
// success or an online audit's abort is final; otherwise the post-round
// audit names the blocks to heal. The audit always runs, so a sealed
// solve can fail corrupted but never return silently wrong.
func (s *sealer[E]) detect(err error) ([][2]int, error) {
	var cerr *resilience.CorruptionError
	if err != nil && !errors.As(err, &cerr) {
		return nil, err
	}
	return s.audit(), err
}

// audit re-digests every sealed block and returns the tile coordinates
// of those whose content no longer matches the seal.
func (s *sealer[E]) audit() [][2]int {
	s.auditMu.Lock()
	defer s.auditMu.Unlock()
	s.stats.Audits++
	var bad [][2]int
	m := s.t.Blocks()
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			id := s.t.BlockID(bi, bj)
			if want, ok := s.seals.Sealed(id); ok && resilience.BlockCRC(s.t.Block(bi, bj)) != want {
				bad = append(bad, [2]int{bi, bj})
			}
		}
	}
	return bad
}

// corruption builds the typed error for a set of corrupted blocks.
func (s *sealer[E]) corruption(bad [][2]int, healed int) *resilience.CorruptionError {
	return &resilience.CorruptionError{Blocks: bad, TaskIDs: tasksOf(s.graph, bad), Healed: healed}
}

// restore reverts one block to the pristine snapshot and clears its seal.
func (s *sealer[E]) restore(bi, bj int) {
	copy(s.t.Block(bi, bj), s.pristine.Block(bi, bj))
	s.seals.Unseal(s.t.BlockID(bi, bj))
}

// restoreAll is the pristine-restart rung: the whole table reverts to
// the snapshot (the in-memory level-0 checkpoint — the on-disk one
// cannot serve here, since its periodic snapshots may already contain
// the silently corrupted bytes).
func (s *sealer[E]) restoreAll() {
	copy(s.t.Cells(), s.pristine.Cells())
	for id := 0; id < s.seals.Len(); id++ {
		s.seals.Unseal(id)
	}
}
