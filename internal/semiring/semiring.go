// Package semiring defines the algebraic structures NPDP recurrences run
// over. The Zuker-style recurrence of the paper is the tropical (min-plus)
// semiring: ⊕ = min, ⊗ = +. Keeping the algebra explicit lets the same
// blocking machinery serve the matrix-parenthesization and optimal-BST
// applications, which use weighted variants of the same recurrence.
package semiring

// Elem constrains the element types supported by the optimized engines.
// The paper evaluates single precision (4 lanes per 128-bit register) and
// double precision (2 lanes).
type Elem interface {
	~float32 | ~float64
}

// Inf returns the additive identity of the min-plus semiring (the "no
// solution yet" value) for element type E. It is a large finite value
// rather than +Inf so that modeled arithmetic (x+Inf) cannot generate NaN
// through Inf-Inf in user-supplied weight hooks; it behaves as infinity
// for every problem size the engines accept.
func Inf[E Elem]() E {
	return E(1e30)
}

// Min returns the smaller of a and b. It is the scalar form of the
// compare+select instruction pair of the SPE kernel.
func Min[E Elem](a, b E) E {
	if b < a {
		return b
	}
	return a
}

// MinIdx returns the smaller of a and b along with which argument won
// (0 for a, 1 for b). Tracebacks use it to recover argmin decisions.
func MinIdx[E Elem](a, b E) (E, int) {
	if b < a {
		return b, 1
	}
	return a, 0
}
