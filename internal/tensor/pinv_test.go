package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJacobiEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 7}})
	vals, vecs := JacobiEigen(a)
	got := map[float64]bool{}
	for _, v := range vals {
		got[math.Round(v)] = true
	}
	if !got[3] || !got[7] {
		t.Fatalf("eigenvalues = %v, want {3,7}", vals)
	}
	// Eigenvector matrix must be orthogonal: V^T V = I.
	if !Equalish(Mul(vecs.T(), vecs), Identity(2), 1e-10) {
		t.Fatal("eigenvectors not orthonormal")
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		// Symmetric matrix: B + B^T.
		b := randomMatrix(r, n, n)
		a := Mul(b, Identity(n)).Add(b.T())
		vals, vecs := JacobiEigen(a)
		// Reconstruct V diag(vals) V^T.
		d := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, vals[i])
		}
		recon := Mul(Mul(vecs, d), vecs.T())
		return Equalish(recon, a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPseudoInverseOfInvertible(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	p := PseudoInverse(a)
	if !Equalish(Mul(a, p), Identity(2), 1e-9) {
		t.Fatalf("A·A+ != I: %v", Mul(a, p).Data)
	}
}

func TestPseudoInverseSingular(t *testing.T) {
	// Rank-1 matrix: pinv must satisfy the Penrose conditions, not blow up.
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	p := PseudoInverse(a)
	// A A+ A = A
	if !Equalish(Mul(Mul(a, p), a), a, 1e-9) {
		t.Fatal("Penrose condition A·A+·A = A violated")
	}
	// A+ A A+ = A+
	if !Equalish(Mul(Mul(p, a), p), p, 1e-9) {
		t.Fatal("Penrose condition A+·A·A+ = A+ violated")
	}
	for _, v := range p.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("pinv of singular matrix produced %v", v)
		}
	}
}

// penroseHolds checks the Penrose conditions of PseudoInverse on a random
// PSD (possibly rank-deficient) matrix X^T X with few rows, drawn from seed.
//
// The tolerances are relative to the scale of the matrix each condition
// reproduces, and grow with its conditioning: rounding and the Jacobi
// stopping threshold perturb the inverted spectrum by about eps·cond(A), so
// P·A·P misses P by about max|P|·eps·cond(A) even when PseudoInverse is
// exact in exact arithmetic. κ = max|A|·max|P| bounds cond(A) within a
// factor n². The 1e-9 floor covers the rcond truncation of eigenvalues
// below 1e-10·max|λ|. Over 3·10^5 seeds the worst observed error is under
// a fifth of each tolerance; a wrong eigenvector or eigenvalue misses by
// order one.
func penroseHolds(seed int64) bool {
	r := rand.New(rand.NewSource(seed))
	n := 2 + r.Intn(5)
	rows := 1 + r.Intn(n+2)
	x := randomMatrix(r, rows, n)
	a := Mul(x.T(), x)
	p := PseudoInverse(a)
	kappa := maxAbs(a) * maxAbs(p)
	tol := func(scale float64) float64 { return scale * (1e-9 + 1e-10*kappa) }
	if !Equalish(Mul(Mul(a, p), a), a, tol(maxAbs(a))) {
		return false
	}
	if !Equalish(Mul(Mul(p, a), p), p, tol(maxAbs(p))) {
		return false
	}
	// Symmetry of A·A+ (third Penrose condition for symmetric A); A·A+ is a
	// projection, so its scale is 1.
	ap := Mul(a, p)
	return Equalish(ap, ap.T(), tol(1))
}

func maxAbs(m *Matrix) float64 {
	v := 0.0
	for _, x := range m.Data {
		v = math.Max(v, math.Abs(x))
	}
	return v
}

func TestPseudoInversePenroseProperty(t *testing.T) {
	if err := quick.Check(penroseHolds, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPseudoInversePenroseIllConditioned is the seed on which the property
// once failed under absolute 1e-6 tolerances: cond(A) ≈ 2.5·10^6, so P's
// entries are about 10^6 and P·A·P misses P by about 3.5·10^-5 absolute,
// 3·10^-11 relative — float64 round-off, not a PseudoInverse defect.
func TestPseudoInversePenroseIllConditioned(t *testing.T) {
	if !penroseHolds(3243341182217478500) {
		t.Fatal("Penrose conditions fail on the ill-conditioned regression seed")
	}
}

func TestPseudoInverseZeroMatrix(t *testing.T) {
	p := PseudoInverse(NewMatrix(3, 3))
	for _, v := range p.Data {
		if v != 0 {
			t.Fatal("pinv(0) must be 0")
		}
	}
}

func TestJacobiEigenNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	JacobiEigen(NewMatrix(2, 3))
}
