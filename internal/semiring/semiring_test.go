package semiring

import (
	"testing"
	"testing/quick"
)

func TestMinPlusLaws(t *testing.T) {
	// Floating-point + is not associative, so only the laws the engines
	// actually rely on are required exactly: ⊕ (min) is commutative and
	// associative, and ⊗ (one addition) distributes over ⊕ because
	// adding a constant is monotone. These hold bit-exactly, which is
	// what makes every engine's output bit-identical.
	if err := quick.Check(func(a, b, c float64) bool {
		comm := Min(a, b) == Min(b, a)
		assoc := Min(Min(a, b), c) == Min(a, Min(b, c))
		dist := a+Min(b, c) == Min(a+b, a+c)
		return comm && assoc && dist
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMinPlusIdentities(t *testing.T) {
	// Inf is the ⊕ (min) identity and 0 the ⊗ (+) identity.
	for _, v := range []float32{0, 1, -5, 1e6} {
		if Min(v, Inf[float32]()) != v {
			t.Errorf("Inf is not ⊕-identity for %v", v)
		}
		if v+0 != v {
			t.Errorf("0 is not ⊗-identity for %v", v)
		}
	}
}

func TestInfBehavesAsInfinity(t *testing.T) {
	// Inf + Inf must not overflow float32, and Inf must dominate any
	// realistic value under min.
	inf32 := Inf[float32]()
	sum := inf32 + inf32
	if sum < inf32 {
		t.Errorf("Inf+Inf overflowed: %v", sum)
	}
	if Min[float32](inf32, 1e20) != 1e20 {
		t.Error("finite value did not beat Inf")
	}
	if Min(Inf[float64](), 1.0) != 1.0 {
		t.Error("f64 Inf not dominated")
	}
}

func TestMin(t *testing.T) {
	if Min(3.0, 2.0) != 2.0 || Min(2.0, 3.0) != 2.0 || Min(2.0, 2.0) != 2.0 {
		t.Error("Min wrong")
	}
}

func TestMinIdx(t *testing.T) {
	if v, i := MinIdx(3.0, 2.0); v != 2.0 || i != 1 {
		t.Errorf("MinIdx(3,2) = %v,%d", v, i)
	}
	if v, i := MinIdx(2.0, 3.0); v != 2.0 || i != 0 {
		t.Errorf("MinIdx(2,3) = %v,%d", v, i)
	}
	// Ties keep the first argument (stable).
	if _, i := MinIdx(5.0, 5.0); i != 0 {
		t.Error("MinIdx tie not stable")
	}
}
