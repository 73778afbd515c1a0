package gate

import (
	"math"
	"testing"

	"tqsim/internal/qmath"
	"tqsim/internal/rng"
)

// allKinds enumerates representative instances of every gate kind.
func allKinds() []Gate {
	u := qmath.Identity(2)
	return []Gate{
		New(KindI, 0), New(KindX, 0), New(KindY, 0), New(KindZ, 0),
		New(KindH, 0), New(KindS, 0), New(KindSdg, 0), New(KindT, 0),
		New(KindTdg, 0), New(KindSX, 0), New(KindSY, 0), New(KindSW, 0),
		NewParam(KindRX, []float64{0.7}, 0),
		NewParam(KindRY, []float64{1.1}, 0),
		NewParam(KindRZ, []float64{-0.4}, 0),
		NewParam(KindP, []float64{2.2}, 0),
		NewParam(KindU3, []float64{0.3, 0.9, -1.7}, 0),
		New(KindCX, 0, 1), New(KindCY, 0, 1), New(KindCZ, 0, 1),
		New(KindCH, 0, 1),
		NewParam(KindCP, []float64{0.8}, 0, 1),
		NewParam(KindCRZ, []float64{0.5}, 0, 1),
		NewParam(KindCRX, []float64{0.6}, 0, 1),
		NewParam(KindCRY, []float64{0.9}, 0, 1),
		New(KindSWAP, 0, 1), New(KindCCX, 0, 1, 2), New(KindCSWAP, 0, 1, 2),
		NewUnitary(u, "custom", 0),
	}
}

func TestAllMatricesUnitary(t *testing.T) {
	for _, g := range allKinds() {
		m := g.Matrix()
		if !m.IsUnitary(1e-10) {
			t.Errorf("%s matrix not unitary:\n%v", g.Kind, m)
		}
		if m.N != 1<<uint(g.Arity()) {
			t.Errorf("%s matrix dimension %d for arity %d", g.Kind, m.N, g.Arity())
		}
	}
}

func TestDaggerInvertsMatrix(t *testing.T) {
	for _, g := range allKinds() {
		prod := qmath.Mul(g.Dagger().Matrix(), g.Matrix())
		id := qmath.Identity(prod.N)
		// Allow a global phase: normalize by the (0,0) entry.
		ph := prod.At(0, 0)
		if ph == 0 {
			t.Errorf("%s: U†U has zero corner", g.Kind)
			continue
		}
		norm := prod.Scale(1 / ph)
		if d := qmath.MaxAbsDiff(norm, id); d > 1e-9 {
			t.Errorf("%s: U†U deviates from identity by %v", g.Kind, d)
		}
	}
}

func TestPauliAlgebra(t *testing.T) {
	x := New(KindX, 0).Matrix()
	y := New(KindY, 0).Matrix()
	z := New(KindZ, 0).Matrix()
	// XY = iZ
	if d := qmath.MaxAbsDiff(qmath.Mul(x, y), z.Scale(1i)); d > 1e-12 {
		t.Fatalf("XY != iZ: %v", d)
	}
	// HXH = Z
	h := New(KindH, 0).Matrix()
	if d := qmath.MaxAbsDiff(qmath.Mul(qmath.Mul(h, x), h), z); d > 1e-12 {
		t.Fatalf("HXH != Z: %v", d)
	}
}

func TestSquareRootGates(t *testing.T) {
	cases := []struct {
		name string
		root Kind
		full Kind
	}{
		{"sx^2=x", KindSX, KindX},
		{"sy^2=y", KindSY, KindY},
		{"s^2=z", KindS, KindZ},
		{"t^2=s", KindT, KindS},
	}
	for _, c := range cases {
		r := New(c.root, 0).Matrix()
		sq := qmath.Mul(r, r)
		full := New(c.full, 0).Matrix()
		if d := qmath.MaxAbsDiff(sq, full); d > 1e-10 {
			t.Errorf("%s: diff %v", c.name, d)
		}
	}
}

func TestSWSquaresToW(t *testing.T) {
	sw := New(KindSW, 0).Matrix()
	sq := qmath.Mul(sw, sw)
	inv := complex(1/math.Sqrt2, 0)
	x := New(KindX, 0).Matrix()
	y := New(KindY, 0).Matrix()
	w := qmath.Add(x, y).Scale(inv)
	// sq may differ by global phase.
	ph := sq.At(0, 1) / w.At(0, 1)
	if d := qmath.MaxAbsDiff(sq, w.Scale(ph)); d > 1e-10 {
		t.Fatalf("SW^2 != W up to phase: %v\nsq=%v\nw=%v", d, sq, w)
	}
}

func TestRotationComposition(t *testing.T) {
	a := NewParam(KindRZ, []float64{0.4}, 0).Matrix()
	b := NewParam(KindRZ, []float64{0.6}, 0).Matrix()
	ab := qmath.Mul(a, b)
	c := NewParam(KindRZ, []float64{1.0}, 0).Matrix()
	if d := qmath.MaxAbsDiff(ab, c); d > 1e-10 {
		t.Fatalf("RZ(0.4)RZ(0.6) != RZ(1.0): %v", d)
	}
}

func TestU3Specializations(t *testing.T) {
	// U3(theta, -pi/2, pi/2) = RX(theta)
	rx := NewParam(KindRX, []float64{0.8}, 0).Matrix()
	u3 := NewParam(KindU3, []float64{0.8, -math.Pi / 2, math.Pi / 2}, 0).Matrix()
	if d := qmath.MaxAbsDiff(rx, u3); d > 1e-10 {
		t.Fatalf("U3 does not specialize to RX: %v", d)
	}
	// U3(theta, 0, 0) = RY(theta)
	ry := NewParam(KindRY, []float64{1.3}, 0).Matrix()
	u3y := NewParam(KindU3, []float64{1.3, 0, 0}, 0).Matrix()
	if d := qmath.MaxAbsDiff(ry, u3y); d > 1e-10 {
		t.Fatalf("U3 does not specialize to RY: %v", d)
	}
}

func TestCXMatrixConvention(t *testing.T) {
	// Qubits [control, target]: control = low bit. Basis |t c>: index 1 =
	// control set, target clear → maps to index 3.
	m := New(KindCX, 0, 1).Matrix()
	if m.At(3, 1) != 1 || m.At(1, 3) != 1 || m.At(0, 0) != 1 || m.At(2, 2) != 1 {
		t.Fatalf("CX convention wrong:\n%v", m)
	}
}

func TestCCXMatrixConvention(t *testing.T) {
	m := New(KindCCX, 0, 1, 2).Matrix()
	// Controls (bits 0,1) both set, target (bit 2) clear: index 3 <-> 7.
	if m.At(7, 3) != 1 || m.At(3, 7) != 1 {
		t.Fatalf("CCX does not flip target when controls set:\n%v", m)
	}
	if m.At(1, 1) != 1 || m.At(2, 2) != 1 || m.At(5, 5) != 1 {
		t.Fatal("CCX perturbs states with a clear control")
	}
}

func TestCSWAPMatrixConvention(t *testing.T) {
	m := New(KindCSWAP, 0, 1, 2).Matrix()
	// Control (bit 0) set: swap bits 1 and 2 → index 3 <-> 5.
	if m.At(5, 3) != 1 || m.At(3, 5) != 1 {
		t.Fatalf("CSWAP wrong:\n%v", m)
	}
	if m.At(2, 2) != 1 || m.At(4, 4) != 1 {
		t.Fatal("CSWAP acts with clear control")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []Gate{
		{Kind: KindCX, Qubits: []int{0}},      // arity
		{Kind: KindRX, Qubits: []int{0}},      // missing param
		{Kind: KindCX, Qubits: []int{1, 1}},   // duplicate qubit
		{Kind: KindX, Qubits: []int{-1}},      // negative qubit
		{Kind: KindUnitary, Qubits: []int{0}}, // missing matrix
		{Kind: KindUnitary, Qubits: []int{0, 1}, U: &qmath.Matrix{N: 2, Data: make([]complex128, 4)}}, // dim mismatch
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid gate accepted: %v", i, g)
		}
	}
}

func TestValidationErrorText(t *testing.T) {
	cases := []struct {
		g    Gate
		want string
	}{
		{Gate{Kind: KindCX, Qubits: []int{1, 1}}, "gate: cx touches qubit 1 twice"},
		{Gate{Kind: KindCCX, Qubits: []int{0, 2, 0}}, "gate: ccx touches qubit 0 twice"},
		{Gate{Kind: KindCSWAP, Qubits: []int{0, 2, 2}}, "gate: cswap touches qubit 2 twice"},
		{Gate{Kind: KindCCX, Qubits: []int{3, -1, 3}}, "gate: ccx has negative qubit -1"},
		{Gate{Kind: KindCX, Qubits: []int{2, -2}}, "gate: cx has negative qubit -2"},
	}
	for _, c := range cases {
		err := c.g.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("%v: Validate() = %v, want %q", c.g.Qubits, err, c.want)
		}
	}
}

func TestValidateDoesNotAllocate(t *testing.T) {
	u := qmath.Identity(4)
	gates := []Gate{
		New(KindH, 3),
		NewParam(KindCP, []float64{0.5}, 2, 7),
		New(KindCCX, 0, 4, 1),
		NewUnitary(u, "u2", 5, 6),
	}
	for _, g := range gates {
		if n := testing.AllocsPerRun(100, func() {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v: Validate allocates %v times per call, want 0", g, n)
		}
	}
}

func TestStringFormat(t *testing.T) {
	g := NewParam(KindCP, []float64{0.5}, 2, 7)
	want := "cp(0.5) q[2],q[7]"
	if got := g.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestRandomUnitaryGate(t *testing.T) {
	r := rng.New(44)
	u := qmath.RandomUnitary(4, r)
	g := NewUnitary(u, "su4", 3, 5)
	if g.Arity() != 2 {
		t.Fatalf("arity %d", g.Arity())
	}
	if !g.Matrix().IsUnitary(1e-9) {
		t.Fatal("unitary gate matrix not unitary")
	}
	dg := g.Dagger()
	prod := qmath.Mul(dg.Matrix(), g.Matrix())
	if d := qmath.MaxAbsDiff(prod, qmath.Identity(4)); d > 1e-9 {
		t.Fatalf("unitary dagger wrong: %v", d)
	}
}

func TestKindMetadata(t *testing.T) {
	if KindCX.Arity() != 2 || KindCCX.Arity() != 3 || KindH.Arity() != 1 {
		t.Fatal("arity table wrong")
	}
	if KindU3.NumParams() != 3 || KindRZ.NumParams() != 1 || KindH.NumParams() != 0 {
		t.Fatal("param table wrong")
	}
	if KindCX.String() != "cx" || KindSdg.String() != "sdg" {
		t.Fatal("name table wrong")
	}
}

func BenchmarkValidate(b *testing.B) {
	g := New(KindCCX, 0, 4, 1)
	for b.Loop() {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
