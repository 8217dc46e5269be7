package npdp

import (
	"context"
	"path/filepath"
	"testing"

	"cellnpdp/internal/pager"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

func pagedSolveToRowMajor[E semiring.Elem](t *testing.T, p *pager.Pager[E], opts PagedOptions) *tri.RowMajor[E] {
	t.Helper()
	if _, err := SolvePagedCtx(context.Background(), p, opts); err != nil {
		t.Fatalf("SolvePagedCtx: %v", err)
	}
	out := tri.NewTiled[E](p.Len(), p.Tile())
	if err := p.Materialize(out); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	return tri.ToRowMajor(out)
}

func checkPagedParity[E semiring.Elem](t *testing.T, src *tri.RowMajor[E], tile, frames, workers int) {
	t.Helper()
	ref := solveRef(src)
	tt := tri.ToTiled(src, tile)
	path := filepath.Join(t.TempDir(), "solve.npsp")
	p, err := pager.Create(path, tt, pager.Options{Frames: frames})
	if err != nil {
		t.Fatalf("pager.Create: %v", err)
	}
	defer p.Close()
	got := pagedSolveToRowMajor(t, p, PagedOptions{Workers: workers})
	if i, j, av, bv, diff := tri.FirstDiff[E](ref, got); diff {
		t.Fatalf("n=%d tile=%d frames=%d workers=%d: first diff at (%d,%d): serial=%v paged=%v",
			src.Len(), tile, frames, workers, i, j, av, bv)
	}
	if st := p.Stats(); frames < tt.Blocks() && st.SpilledBlocks == 0 {
		t.Errorf("frames=%d < blocks=%d but nothing spilled", frames, tt.Blocks())
	}
}

func TestPagedMatchesSerial(t *testing.T) {
	for _, n := range []int{16, 33, 64, 100, 129} {
		for _, tile := range []int{4, 8, 16} {
			src := workload.Chain[float32](n, int64(n*31+tile))
			// Frames well below the block count: the solve must page.
			checkPagedParity(t, src, tile, 6, 1)
			checkPagedParity(t, src, tile, 6, 4)
		}
	}
}

func TestPagedMatchesSerialF64(t *testing.T) {
	src := workload.Dense[float64](96, 7)
	checkPagedParity(t, src, 8, 5, 3)
}

func TestPagedHealsTornWrites(t *testing.T) {
	// A low-rate torn-write injector: some spilled finals page back in
	// corrupt; the solve must demote the cone, recompute, and still match
	// the serial answer bit-for-bit.
	src := workload.Chain[float32](96, 1234)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 8)
	path := filepath.Join(t.TempDir(), "solve.npsp")
	p, err := pager.Create(path, tt, pager.Options{
		Frames: 5,
		Faults: &pager.DiskFaults{Rate: 0.05, Seed: 42, Kinds: []pager.DiskFaultKind{pager.DiskFaultTorn}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := pagedSolveToRowMajor(t, p, PagedOptions{Workers: 4, Logf: t.Logf})
	if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
		t.Fatalf("first diff at (%d,%d): serial=%v paged=%v", i, j, av, bv)
	}
	if st := p.Stats(); st.FaultedPages == 0 {
		t.Skip("fault schedule hit no page-in this run; schedule-dependent under concurrency")
	} else if st.PageHeals == 0 {
		t.Errorf("faulted pages (%d) but no heals recorded: %+v", st.FaultedPages, st)
	}
}

func TestPagedHealsBitFlips(t *testing.T) {
	src := workload.Dense[float32](64, 99)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 8)
	path := filepath.Join(t.TempDir(), "solve.npsp")
	p, err := pager.Create(path, tt, pager.Options{
		Frames: 4,
		Faults: &pager.DiskFaults{Rate: 0.05, Seed: 7, Kinds: []pager.DiskFaultKind{pager.DiskFaultFlip, pager.DiskFaultEIO}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := pagedSolveToRowMajor(t, p, PagedOptions{Workers: 2, Logf: t.Logf})
	if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
		t.Fatalf("first diff at (%d,%d): serial=%v paged=%v", i, j, av, bv)
	}
}

func TestPagedENOSPCDegradesAndStillSolves(t *testing.T) {
	// Total ENOSPC: every spill fails, the pager degrades to resident
	// growth, and the solve still completes correctly fully in memory.
	src := workload.Chain[float32](64, 5)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 8)
	path := filepath.Join(t.TempDir(), "solve.npsp")
	p, err := pager.Create(path, tt, pager.Options{
		Frames: 4,
		Faults: &pager.DiskFaults{Rate: 1, Kinds: []pager.DiskFaultKind{pager.DiskFaultENOSPC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := pagedSolveToRowMajor(t, p, PagedOptions{Workers: 2, Logf: t.Logf})
	if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
		t.Fatalf("first diff at (%d,%d): serial=%v paged=%v", i, j, av, bv)
	}
	if st := p.Stats(); st.ENOSPCDegradations == 0 {
		t.Error("no ENOSPC degradation recorded under a rate-1 ENOSPC injector")
	}
}

func TestPagedResumeAfterSimulatedKill(t *testing.T) {
	// Partial run in wavefront order, commit, then abandon the pager
	// handle un-Closed — exactly the state SIGKILL leaves behind. A fresh
	// Open + Resume must recover the committed finals, recompute only the
	// remainder, and match the serial answer bit-for-bit.
	src := workload.Dense[float32](96, 321)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 8)
	path := filepath.Join(t.TempDir(), "solve.npsp")
	p, err := pager.Create(path, tt, pager.Options{Frames: 5, CommitEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	mul, err := ResolveStage1Shape[float32](perfmodel.KernelAuto, p.Tile(), p.Len())
	if err != nil {
		t.Fatal(err)
	}
	m := tt.Blocks()
	total := m * (m + 1) / 2
	donePartial := 0
	for d := 0; d < m && donePartial < total/3; d++ {
		for bi := 0; bi+d < m && donePartial < total/3; bi++ {
			if _, err := execBlock[float32](p, bi, bi+d, mul); err != nil {
				t.Fatal(err)
			}
			donePartial++
		}
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// No Close: the handle is abandoned mid-flight.

	p2, err := pager.Open[float32](path, pager.Options{Frames: 5})
	if err != nil {
		t.Fatalf("Open after simulated kill: %v", err)
	}
	defer p2.Close()
	recovered := 0
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			if p2.IsFinal(bi, bj) {
				recovered++
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no blocks recovered from committed index")
	}
	if recovered >= total {
		t.Fatalf("all %d blocks recovered from a %d-block partial run", recovered, donePartial)
	}
	got := pagedSolveToRowMajor(t, p2, PagedOptions{Workers: 2, Resume: true, Logf: t.Logf})
	if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
		t.Fatalf("resumed solve diverged at (%d,%d): serial=%v paged=%v", i, j, av, bv)
	}
}
