package npdp

import (
	"strings"
	"testing"

	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

func TestChoicesValuesMatchPlainSolve(t *testing.T) {
	for _, n := range []int{4, 20, 77, 150} {
		src := workload.Chain[float32](n, int64(n))
		plain := src.Clone()
		SolveSerial(plain)
		withCh := src.Clone()
		SolveSerialChoices(withCh)
		if !tri.Equal[float32](plain, withCh) {
			t.Fatalf("n=%d: choice-tracking changed DP values", n)
		}
	}
}

func TestDerivationValueEqualsOptimum(t *testing.T) {
	// The reconstructed derivation, re-evaluated on the unsolved
	// instance, must reproduce the DP's optimal value for every cell.
	for _, seed := range []int64{1, 2, 3} {
		const n = 60
		init := workload.Dense[float32](n, seed)
		solved := init.Clone()
		ch := SolveSerialChoices(solved)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				d, err := ch.Tree(i, j)
				if err != nil {
					t.Fatal(err)
				}
				// Value re-associates the same additions the DP performed
				// along the winning derivation, in the same order
				// (left-to-right down the tree matches d[i][k]+d[k][j]).
				if got := Value(d, init); got != solved.At(i, j) {
					t.Fatalf("seed %d cell (%d,%d): derivation value %v != optimum %v",
						seed, i, j, got, solved.At(i, j))
				}
			}
		}
	}
}

func TestDerivationStructure(t *testing.T) {
	const n = 30
	init := workload.Chain[float32](n, 5)
	solved := init.Clone()
	ch := SolveSerialChoices(solved)
	d, err := ch.Tree(0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	// With only adjacent spans initialized, the derivation must
	// decompose the full range into exactly n-1 adjacent leaves.
	var leaves [][2]int
	var walk func(*Derivation)
	walk = func(x *Derivation) {
		if x.Leaf() {
			leaves = append(leaves, [2]int{x.I, x.J})
			return
		}
		walk(x.Left)
		walk(x.Right)
	}
	walk(d)
	if len(leaves) != n-1 {
		t.Fatalf("derivation has %d leaves, want %d", len(leaves), n-1)
	}
	for idx, lf := range leaves {
		if lf[0] != idx || lf[1] != idx+1 {
			t.Fatalf("leaf %d = %v, want [%d,%d]", idx, lf, idx, idx+1)
		}
	}
	s := d.String()
	if !strings.HasPrefix(s, "(") || strings.Count(s, "[") != n-1 {
		t.Errorf("rendering malformed: %s", s)
	}
}

func TestChoicesLeafForUnimproved(t *testing.T) {
	src := workload.Dense[float32](10, 9)
	// Make one cell so cheap nothing can beat it.
	src.Set(2, 7, -1000)
	ch := SolveSerialChoices(src)
	if ch.Split(2, 7) != NoSplit {
		t.Error("unbeatable initial value still got a split")
	}
	d, err := ch.Tree(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Leaf() {
		t.Error("tree of unimproved cell is not a leaf")
	}
}

func TestChoicesTreeRejectsBadCell(t *testing.T) {
	ch := NewChoices(8)
	if _, err := ch.Tree(5, 3); err == nil {
		t.Error("lower-triangle cell accepted")
	}
	if _, err := ch.Tree(0, 8); err == nil {
		t.Error("out-of-range cell accepted")
	}
}
