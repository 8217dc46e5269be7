package npdp

import (
	"runtime"
	"testing"

	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

func TestParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{4, 16, 33, 64, 100, 150, 256} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, g := range []int{1, 2, 3} {
				src := workload.Chain[float32](n, int64(n*31+workers*7+g))
				ref := solveRef(src)
				tt := tri.ToTiled(src, 16)
				if _, err := SolveParallel(tt, ParallelOptions{Workers: workers, SchedSide: g}); err != nil {
					t.Fatalf("SolveParallel(n=%d w=%d g=%d): %v", n, workers, g, err)
				}
				got := tri.ToRowMajor(tt)
				if i, j, av, bv, diff := tri.FirstDiff[float32](ref, got); diff {
					t.Fatalf("n=%d w=%d g=%d: first diff at (%d,%d): serial=%v parallel=%v", n, workers, g, i, j, av, bv)
				}
			}
		}
	}
}

func TestParallelMatchesSerialF64(t *testing.T) {
	src := workload.Dense[float64](120, 5)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 24)
	if _, err := SolveParallel(tt, ParallelOptions{Workers: runtime.GOMAXPROCS(0), SchedSide: 2}); err != nil {
		t.Fatal(err)
	}
	got := tri.ToRowMajor(tt)
	if !tri.Equal[float64](ref, got) {
		t.Fatal("parallel f64 result differs from serial reference")
	}
}

func TestParallelStatsMatchTiled(t *testing.T) {
	// The parallel engine performs exactly the same kernel work as the
	// serial tiled engine, just distributed; the stats must agree.
	src := workload.Chain[float32](200, 77)
	tt1 := tri.ToTiled(src, 16)
	st1, err := SolveTiled(tt1)
	if err != nil {
		t.Fatal(err)
	}
	tt2 := tri.ToTiled(src, 16)
	st2, err := SolveParallel(tt2, ParallelOptions{Workers: 4, SchedSide: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("stats differ: tiled=%+v parallel=%+v", st1, st2)
	}
}

func TestParallelRejectsBadOptions(t *testing.T) {
	tt := tri.ToTiled(workload.Chain[float32](16, 1), 8)
	if _, err := SolveParallel(tt, ParallelOptions{Workers: 0}); err == nil {
		t.Error("accepted zero workers")
	}
	if _, err := SolveParallel(tt, ParallelOptions{Workers: -2}); err == nil {
		t.Error("accepted negative workers")
	}
	bad := tri.ToTiled(workload.Chain[float32](16, 1), 6)
	if _, err := SolveParallel(bad, ParallelOptions{Workers: 2}); err == nil {
		t.Error("accepted tile side not a multiple of 4")
	}
	if _, err := SolveParallel(tt, ParallelOptions{Workers: 2, SchedSide: -1}); err == nil {
		t.Error("accepted negative SchedSide")
	}
}

// TestParallelAblationConfigsMatchSerial covers the seed-shaped ablation
// paths: the mutex-pool scheduler and the CB-step stage-1 kernel (alone
// and combined) must stay bit-identical to the serial reference and
// report the same stats as the default engine.
func TestParallelAblationConfigsMatchSerial(t *testing.T) {
	src := workload.Chain[float32](180, 9)
	ref := solveRef(src)
	base := tri.ToTiled(src, 16)
	stDefault, err := SolveParallel(base, ParallelOptions{Workers: 4, SchedSide: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []ParallelOptions{
		{Workers: 4, SchedSide: 2, MutexPool: true},
		{Workers: 4, SchedSide: 2, Stage1: perfmodel.KernelScalar},
		{Workers: 4, SchedSide: 2, MutexPool: true, Stage1: perfmodel.KernelScalar},
	} {
		tt := tri.ToTiled(src, 16)
		st, err := SolveParallel(tt, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !tri.Equal[float32](ref, tri.ToRowMajor(tt)) {
			t.Fatalf("%+v: result differs from serial reference", opts)
		}
		if st != stDefault {
			t.Errorf("%+v: stats %+v != default engine %+v", opts, st, stDefault)
		}
	}
}

// TestParallelF64FastPathRouting makes sure the float64 table takes the
// generic panel (no fast-path mixup) and still matches serial exactly.
func TestParallelF64FastPathRouting(t *testing.T) {
	src := workload.Dense[float64](96, 3)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 16)
	if _, err := SolveParallel(tt, ParallelOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if !tri.Equal[float64](ref, tri.ToRowMajor(tt)) {
		t.Fatal("f64 panel engine differs from serial reference")
	}
}

func TestParallelFullDepsMatchesSerial(t *testing.T) {
	src := workload.Chain[float32](150, 8)
	ref := solveRef(src)
	tt := tri.ToTiled(src, 16)
	if _, err := SolveParallel(tt, ParallelOptions{Workers: 4, FullDeps: true}); err != nil {
		t.Fatal(err)
	}
	if !tri.Equal[float32](ref, tri.ToRowMajor(tt)) {
		t.Fatal("full-dependence graph run differs from serial")
	}
}

func TestWavefrontBarrierMatchesSerial(t *testing.T) {
	for _, n := range []int{8, 33, 100, 200} {
		for _, workers := range []int{1, 3, 8} {
			src := workload.Chain[float32](n, int64(n+workers))
			ref := solveRef(src)
			tt := tri.ToTiled(src, 16)
			st, err := SolveWavefrontBarrier(tt, workers)
			if err != nil {
				t.Fatalf("n=%d w=%d: %v", n, workers, err)
			}
			if !tri.Equal[float32](ref, tri.ToRowMajor(tt)) {
				t.Fatalf("n=%d w=%d: wavefront differs from serial", n, workers)
			}
			// Same kernel work as the task-queue engine.
			tt2 := tri.ToTiled(src, 16)
			st2, err := SolveParallel(tt2, ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if st != st2 {
				t.Errorf("n=%d: wavefront stats %+v != task-queue %+v", n, st, st2)
			}
		}
	}
}

func TestWavefrontBarrierRejectsBad(t *testing.T) {
	tt := tri.ToTiled(workload.Chain[float32](16, 1), 8)
	if _, err := SolveWavefrontBarrier(tt, 0); err != nil {
		// expected
	} else {
		t.Error("0 workers accepted")
	}
	bad := tri.ToTiled(workload.Chain[float32](16, 1), 6)
	if _, err := SolveWavefrontBarrier(bad, 2); err == nil {
		t.Error("bad tile accepted")
	}
}
