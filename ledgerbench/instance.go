package main

import (
	"fmt"
	"math"

	"cellnpdp"
	"cellnpdp/internal/npdp"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tri"
	"cellnpdp/internal/workload"
)

// instance is one seeded chain table with its serial reference. The
// reference is computed once, in set-up; every op's result is compared
// with it bit for bit.
type instance[E semiring.Elem] struct {
	n     int
	src   *tri.RowMajor[E]   // the unsolved table
	ref   *tri.RowMajor[E]   // SolveSerial of src
	table *cellnpdp.Table[E] // src as a public-API table
}

// newInstance builds the chain instance the serve layer builds for
// (n, seed) — diagonal 0, seeded superdiagonal, Inf elsewhere — and
// solves it with the serial engine.
func newInstance[E semiring.Elem](n int, seed int64) (*instance[E], error) {
	src := workload.Chain[E](n, seed)
	table, err := cellnpdp.NewTable[E](n)
	if err != nil {
		return nil, err
	}
	for i := 0; i+1 < n; i++ {
		if err := table.Set(i, i+1, src.At(i, i+1)); err != nil {
			return nil, err
		}
	}
	ref := src.Clone()
	npdp.SolveSerial(ref)
	return &instance[E]{n: n, src: src, ref: ref, table: table}, nil
}

// bitsOf returns the function that maps a cell to its IEEE bit pattern
// (Float32bits or Float64bits), so comparisons tell +0 from -0 and never
// treat two NaNs as equal or unequal by value.
func bitsOf[E semiring.Elem]() func(E) uint64 {
	var zero E
	if _, ok := any(zero).(float32); ok {
		return func(v E) uint64 { return uint64(math.Float32bits(float32(v))) }
	}
	return func(v E) uint64 { return math.Float64bits(float64(v)) }
}

// check compares every cell of a solved table, read through at, with the
// reference bit for bit.
func (in *instance[E]) check(at func(i, j int) (E, error)) error {
	bits := bitsOf[E]()
	for i := 0; i < in.n; i++ {
		for j := i; j < in.n; j++ {
			got, err := at(i, j)
			if err != nil {
				return err
			}
			if want := in.ref.At(i, j); bits(got) != bits(want) {
				return fmt.Errorf("cell (%d,%d) = %v, serial reference %v", i, j, got, want)
			}
		}
	}
	return nil
}

// checkRowMajor and checkTiled adapt check to the internal table types.
func (in *instance[E]) checkRowMajor(t *tri.RowMajor[E]) error {
	return in.check(func(i, j int) (E, error) { return t.At(i, j), nil })
}

func (in *instance[E]) checkTiled(t *tri.Tiled[E]) error {
	return in.check(func(i, j int) (E, error) { return t.At(i, j), nil })
}

// flip corrupts cell (0, n-1) of a solved table — the smoke test's
// stand-in for a silently wrong result.
func flip[E semiring.Elem](at func(i, j int) E, set func(i, j int, v E), n int) {
	set(0, n-1, at(0, n-1)+1)
}

func flipTable[E semiring.Elem](t *cellnpdp.Table[E]) {
	flip(func(i, j int) E { v, _ := t.At(i, j); return v },
		func(i, j int, v E) { _ = t.Set(i, j, v) }, t.Len())
}

func flipRowMajor[E semiring.Elem](t *tri.RowMajor[E]) { flip(t.At, t.Set, t.Len()) }

func flipTiled[E semiring.Elem](t *tri.Tiled[E]) { flip(t.At, t.Set, t.Len()) }

// elemBytes is the width of one table cell.
func elemBytes[E semiring.Elem]() int {
	var zero E
	if _, ok := any(zero).(float32); ok {
		return 4
	}
	return 8
}

// tileFor is the tile side every engine derives for E from the default
// 32 KiB memory-block budget.
func tileFor[E semiring.Elem]() (int, error) {
	prec := npdp.Single
	if elemBytes[E]() == 8 {
		prec = npdp.Double
	}
	return npdp.DefaultTile(32*1024, prec)
}
