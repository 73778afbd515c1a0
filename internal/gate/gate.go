// Package gate defines the quantum gate library: the named gates used by the
// benchmark workloads, their unitary matrices, parameterized rotations, and
// arbitrary-unitary gates (needed for Quantum Volume model circuits).
//
// A Gate value is an *instance*: a Kind, the qubits it acts on, optional real
// parameters, and, for KindUnitary, an explicit matrix. Matrices use the
// little-endian qubit convention shared with internal/statevec: basis index
// bit i corresponds to qubit i, and for a multi-qubit gate the first qubit in
// Qubits is the least significant bit of the matrix's basis index.
package gate

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"strings"

	"tqsim/internal/qmath"
)

// Kind identifies a gate type.
type Kind int

// Gate kinds. One- and two-qubit gates cover the full benchmark suite; CCX
// is provided for the arithmetic circuits and is decomposed by workloads
// that want a strictly 1q/2q gate set.
const (
	KindI Kind = iota
	KindX
	KindY
	KindZ
	KindH
	KindS
	KindSdg
	KindT
	KindTdg
	KindSX  // sqrt(X)
	KindSY  // sqrt(Y)
	KindSW  // sqrt(W), W=(X+Y)/sqrt(2); used by supremacy-style circuits
	KindRX  // params: theta
	KindRY  // params: theta
	KindRZ  // params: theta
	KindP   // phase gate diag(1, e^{i theta}); params: theta
	KindU3  // params: theta, phi, lambda
	KindCX  // Qubits: [control, target]
	KindCY  // Qubits: [control, target]
	KindCZ  // Qubits: [control, target] (symmetric)
	KindCP  // controlled phase; Qubits: [control, target]; params: theta
	KindCRZ // controlled RZ; Qubits: [control, target]; params: theta
	KindCRX // controlled RX; Qubits: [control, target]; params: theta
	KindCRY // controlled RY; Qubits: [control, target]; params: theta
	KindCH  // controlled H
	KindSWAP
	KindCCX     // Toffoli; Qubits: [c0, c1, target]
	KindCSWAP   // Fredkin; Qubits: [control, a, b]
	KindUnitary // explicit matrix on 1..3 qubits
	kindCount
)

var kindNames = [...]string{
	KindI: "id", KindX: "x", KindY: "y", KindZ: "z", KindH: "h",
	KindS: "s", KindSdg: "sdg", KindT: "t", KindTdg: "tdg",
	KindSX: "sx", KindSY: "sy", KindSW: "sw",
	KindRX: "rx", KindRY: "ry", KindRZ: "rz", KindP: "p", KindU3: "u3",
	KindCX: "cx", KindCY: "cy", KindCZ: "cz", KindCP: "cp",
	KindCRZ: "crz", KindCRX: "crx", KindCRY: "cry", KindCH: "ch",
	KindSWAP: "swap", KindCCX: "ccx", KindCSWAP: "cswap",
	KindUnitary: "unitary",
}

var kindParams = [...]int{
	KindRX: 1, KindRY: 1, KindRZ: 1, KindP: 1, KindU3: 3,
	KindCP: 1, KindCRZ: 1, KindCRX: 1, KindCRY: 1,
}

var kindArity = [...]int{
	KindI: 1, KindX: 1, KindY: 1, KindZ: 1, KindH: 1,
	KindS: 1, KindSdg: 1, KindT: 1, KindTdg: 1,
	KindSX: 1, KindSY: 1, KindSW: 1,
	KindRX: 1, KindRY: 1, KindRZ: 1, KindP: 1, KindU3: 1,
	KindCX: 2, KindCY: 2, KindCZ: 2, KindCP: 2,
	KindCRZ: 2, KindCRX: 2, KindCRY: 2, KindCH: 2,
	KindSWAP: 2, KindCCX: 3, KindCSWAP: 3,
	KindUnitary: 0, // arity taken from the instance
}

// String returns the lowercase QASM-style mnemonic for the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// NumParams returns the number of real parameters the kind requires.
func (k Kind) NumParams() int {
	if k >= 0 && int(k) < len(kindParams) {
		return kindParams[k]
	}
	return 0
}

// Arity returns the number of qubits a gate of this kind acts on, or 0 for
// KindUnitary whose arity depends on the instance.
func (k Kind) Arity() int {
	if k >= 0 && int(k) < len(kindArity) {
		return kindArity[k]
	}
	return 0
}

// Gate is a single gate instance within a circuit.
type Gate struct {
	Kind   Kind
	Qubits []int
	Params []float64
	// U holds the explicit matrix for KindUnitary gates; nil otherwise.
	U *qmath.Matrix
	// Label optionally tags the gate (e.g. "su4" for QV blocks).
	Label string
}

// New constructs a parameterless gate instance.
func New(k Kind, qubits ...int) Gate {
	g := Gate{Kind: k, Qubits: qubits}
	g.mustValidate()
	return g
}

// NewParam constructs a parameterized gate instance.
func NewParam(k Kind, params []float64, qubits ...int) Gate {
	g := Gate{Kind: k, Qubits: qubits, Params: params}
	g.mustValidate()
	return g
}

// NewUnitary constructs an explicit-matrix gate. The matrix dimension must
// be 2^len(qubits).
func NewUnitary(u qmath.Matrix, label string, qubits ...int) Gate {
	g := Gate{Kind: KindUnitary, Qubits: qubits, U: &u, Label: label}
	g.mustValidate()
	return g
}

func (g Gate) mustValidate() {
	if err := g.Validate(); err != nil {
		panic(err)
	}
}

// Validate checks arity, parameter count, matrix dimension and qubit
// distinctness.
func (g Gate) Validate() error {
	if g.Kind == KindUnitary {
		if g.U == nil {
			return fmt.Errorf("gate: unitary gate without matrix")
		}
		want := 1 << len(g.Qubits)
		if g.U.N != want {
			return fmt.Errorf("gate: unitary on %d qubits needs a %dx%d matrix, got %dx%d",
				len(g.Qubits), want, want, g.U.N, g.U.N)
		}
		if len(g.Qubits) < 1 || len(g.Qubits) > 3 {
			return fmt.Errorf("gate: unitary arity %d unsupported", len(g.Qubits))
		}
	} else {
		if got, want := len(g.Qubits), g.Kind.Arity(); got != want {
			return fmt.Errorf("gate: %s needs %d qubits, got %d", g.Kind, want, got)
		}
		if got, want := len(g.Params), g.Kind.NumParams(); got != want {
			return fmt.Errorf("gate: %s needs %d params, got %d", g.Kind, want, got)
		}
	}
	// Arity is at most 3 here, so a pairwise scan beats a set.
	for i, q := range g.Qubits {
		if q < 0 {
			return fmt.Errorf("gate: %s has negative qubit %d", g.Kind, q)
		}
		if slices.Contains(g.Qubits[:i], q) {
			return fmt.Errorf("gate: %s touches qubit %d twice", g.Kind, q)
		}
	}
	return nil
}

// Arity returns the number of qubits this instance acts on.
func (g Gate) Arity() int { return len(g.Qubits) }

// String renders the gate in a QASM-like syntax, e.g. "cx q[0],q[3]".
func (g Gate) String() string {
	var b strings.Builder
	name := g.Kind.String()
	if g.Kind == KindUnitary && g.Label != "" {
		name = g.Label
	}
	b.WriteString(name)
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.6g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q[%d]", q)
	}
	return b.String()
}

// Matrix returns the unitary matrix for the gate instance, in the
// little-endian convention described in the package comment.
func (g Gate) Matrix() qmath.Matrix {
	switch g.Kind {
	case KindUnitary:
		return g.U.Clone()
	case KindI:
		return qmath.Identity(2)
	case KindX:
		return qmath.FromRows([][]complex128{{0, 1}, {1, 0}})
	case KindY:
		return qmath.FromRows([][]complex128{{0, -1i}, {1i, 0}})
	case KindZ:
		return qmath.FromRows([][]complex128{{1, 0}, {0, -1}})
	case KindH:
		s := complex(1/math.Sqrt2, 0)
		return qmath.FromRows([][]complex128{{s, s}, {s, -s}})
	case KindS:
		return qmath.FromRows([][]complex128{{1, 0}, {0, 1i}})
	case KindSdg:
		return qmath.FromRows([][]complex128{{1, 0}, {0, -1i}})
	case KindT:
		return qmath.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(1i * math.Pi / 4)}})
	case KindTdg:
		return qmath.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(-1i * math.Pi / 4)}})
	case KindSX:
		return qmath.FromRows([][]complex128{
			{complex(0.5, 0.5), complex(0.5, -0.5)},
			{complex(0.5, -0.5), complex(0.5, 0.5)},
		})
	case KindSY:
		return qmath.FromRows([][]complex128{
			{complex(0.5, 0.5), complex(-0.5, -0.5)},
			{complex(0.5, 0.5), complex(0.5, 0.5)},
		})
	case KindSW:
		// sqrt(W) with W = (X+Y)/sqrt(2), per Arute et al. 2019 (SI), up to
		// global phase: e^{i pi/4}(I - iW)/sqrt(2).
		inv := 1 / math.Sqrt2
		return qmath.FromRows([][]complex128{
			{complex(0.5, 0.5), complex(0, -inv)},
			{complex(inv, 0), complex(0.5, 0.5)},
		})
	case KindRX:
		t := g.Params[0] / 2
		c, s := complex(math.Cos(t), 0), complex(0, -math.Sin(t))
		return qmath.FromRows([][]complex128{{c, s}, {s, c}})
	case KindRY:
		t := g.Params[0] / 2
		c, s := complex(math.Cos(t), 0), complex(math.Sin(t), 0)
		return qmath.FromRows([][]complex128{{c, -s}, {s, c}})
	case KindRZ:
		t := g.Params[0] / 2
		return qmath.FromRows([][]complex128{
			{cmplx.Exp(complex(0, -t)), 0},
			{0, cmplx.Exp(complex(0, t))},
		})
	case KindP:
		return qmath.FromRows([][]complex128{
			{1, 0}, {0, cmplx.Exp(complex(0, g.Params[0]))},
		})
	case KindU3:
		th, ph, la := g.Params[0]/2, g.Params[1], g.Params[2]
		c, s := complex(math.Cos(th), 0), complex(math.Sin(th), 0)
		return qmath.FromRows([][]complex128{
			{c, -cmplx.Exp(complex(0, la)) * s},
			{cmplx.Exp(complex(0, ph)) * s, cmplx.Exp(complex(0, ph+la)) * c},
		})
	case KindCX:
		return controlled2(New(KindX, 0).Matrix())
	case KindCY:
		return controlled2(New(KindY, 0).Matrix())
	case KindCZ:
		return controlled2(New(KindZ, 0).Matrix())
	case KindCH:
		return controlled2(New(KindH, 0).Matrix())
	case KindCP:
		return controlled2(NewParam(KindP, g.Params, 0).Matrix())
	case KindCRZ:
		return controlled2(NewParam(KindRZ, g.Params, 0).Matrix())
	case KindCRX:
		return controlled2(NewParam(KindRX, g.Params, 0).Matrix())
	case KindCRY:
		return controlled2(NewParam(KindRY, g.Params, 0).Matrix())
	case KindSWAP:
		m := qmath.NewMatrix(4)
		m.Set(0, 0, 1)
		m.Set(1, 2, 1)
		m.Set(2, 1, 1)
		m.Set(3, 3, 1)
		return m
	case KindCCX:
		// Qubits [c0, c1, t]; basis bit0=c0, bit1=c1, bit2=t.
		m := qmath.Identity(8)
		// Both controls set: indices with bits 0 and 1 set → 3 and 7 swap on bit 2.
		m.Set(3, 3, 0)
		m.Set(7, 7, 0)
		m.Set(3, 7, 1)
		m.Set(7, 3, 1)
		return m
	case KindCSWAP:
		// Qubits [c, a, b]; bit0=c, bit1=a, bit2=b. Control set → swap a,b.
		m := qmath.Identity(8)
		// control=1, a=1, b=0 → index 3; control=1, a=0, b=1 → index 5.
		m.Set(3, 3, 0)
		m.Set(5, 5, 0)
		m.Set(3, 5, 1)
		m.Set(5, 3, 1)
		return m
	}
	panic(fmt.Sprintf("gate: no matrix for kind %v", g.Kind))
}

// controlled2 embeds a single-qubit unitary u as a controlled gate on two
// qubits with Qubits=[control, target]: bit0=control, bit1=target. The gate
// applies u on the target when the control bit is 1.
func controlled2(u qmath.Matrix) qmath.Matrix {
	m := qmath.Identity(4)
	// Basis states with control(bit0)=1: indices 1 (t=0) and 3 (t=1).
	m.Set(1, 1, u.At(0, 0))
	m.Set(1, 3, u.At(0, 1))
	m.Set(3, 1, u.At(1, 0))
	m.Set(3, 3, u.At(1, 1))
	return m
}

// Dagger returns a gate instance realizing the adjoint of g.
func (g Gate) Dagger() Gate {
	switch g.Kind {
	case KindI, KindX, KindY, KindZ, KindH, KindCX, KindCY, KindCZ, KindCH,
		KindSWAP, KindCCX, KindCSWAP:
		return g // self-adjoint
	case KindS:
		return New(KindSdg, g.Qubits...)
	case KindSdg:
		return New(KindS, g.Qubits...)
	case KindT:
		return New(KindTdg, g.Qubits...)
	case KindTdg:
		return New(KindT, g.Qubits...)
	case KindRX, KindRY, KindRZ, KindP, KindCP, KindCRZ, KindCRX, KindCRY:
		return NewParam(g.Kind, []float64{-g.Params[0]}, g.Qubits...)
	case KindU3:
		return NewParam(KindU3,
			[]float64{-g.Params[0], -g.Params[2], -g.Params[1]}, g.Qubits...)
	default:
		u := g.Matrix().Dagger()
		label := g.Label
		if label != "" {
			label += "dg"
		}
		return NewUnitary(u, label, g.Qubits...)
	}
}
