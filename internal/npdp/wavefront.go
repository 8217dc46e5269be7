package npdp

import (
	"fmt"
	"sync"

	"cellnpdp/internal/kernel"
	"cellnpdp/internal/perfmodel"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
)

// SolveWavefrontBarrier is the prior work's parallelization strategy
// (Tan et al. [25]: "a parallel algorithm which performs NPDP step by
// step; in each step, a block of data … is computed by all cores in
// parallel"): memory blocks are grouped into anti-diagonal waves —
// wave w holds every block (i, j) with j−i = w, all mutually independent
// once waves 0..w−1 are done — and a barrier separates consecutive waves.
//
// Compared to the paper's task-queue procedure (SolveParallel), the
// barrier forfeits the overlap between a wave's stragglers and the next
// wave's ready blocks; the ablation benches quantify the cost. Results
// are bit-identical to every other engine.
func SolveWavefrontBarrier[E semiring.Elem](t *tri.Tiled[E], workers int) (kernel.Stats, error) {
	if err := kernel.CheckTile(t.Tile()); err != nil {
		return kernel.Stats{}, err
	}
	if workers <= 0 {
		return kernel.Stats{}, fmt.Errorf("npdp: workers must be positive, got %d", workers)
	}
	m := t.Blocks()
	mul, err := ResolveStage1[E](perfmodel.KernelAuto, t)
	if err != nil {
		return kernel.Stats{}, err
	}
	store := residentStore[E]{t}
	perWorker := make([]kernel.Stats, workers)
	for wave := 0; wave < m; wave++ {
		// Blocks (i, i+wave) for i = 0..m-1-wave, strided across workers.
		count := m - wave
		var wg sync.WaitGroup
		for w := 0; w < workers && w < count; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for idx := worker; idx < count; idx += workers {
					st, _ := execBlock[E](store, idx, idx+wave, mul) // a resident store never fails
					perWorker[worker].Add(st)
				}
			}(w)
		}
		wg.Wait() // the barrier the task queue removes
	}
	var st kernel.Stats
	for _, s := range perWorker {
		st.Add(s)
	}
	return st, nil
}
