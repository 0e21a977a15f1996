package vm

import (
	"math"

	"mpifault/internal/isa"
)

// The floating-point stack follows x87 semantics closely enough for the
// paper's analysis to transfer:
//
//   - the stack top index lives in SWD bits 11-13, so status-word bit flips
//     corrupt register addressing;
//   - every slot carries a 2-bit tag (valid/zero/special/empty), and values
//     are *reconstructed from the tag on read*: a tag flipped from valid to
//     special yields NaN, valid to zero yields 0 — exactly the mechanism
//     §6.1.1 identifies for TWD faults ("changing one bit can turn a valid
//     number into NaN or zero");
//   - reading an empty slot yields the x87 "indefinite" quiet NaN.

// indefinite is the x87 QNaN floating-point indefinite value.
var indefinite = math.Float64frombits(0xFFF8000000000000)

// classify runs on every FP stack write, so it reads the class straight
// off the exponent field: ±0 is TagZero, an all-ones exponent (NaN, Inf)
// or an all-zeros exponent with a nonzero fraction (denormal) is
// TagSpecial, anything else is TagValid.
func classify(v float64) int {
	b := math.Float64bits(v) &^ (1 << 63)
	if b == 0 {
		return isa.TagZero
	}
	if e := b >> 52; e == 0 || e == 0x7FF {
		return isa.TagSpecial // NaN, Inf or denormal
	}
	return isa.TagValid
}

// fpush pushes v onto the FP stack.
func (m *Machine) fpush(v float64) {
	e := &m.FP
	top := (e.Top() - 1) & 7
	e.SetTop(top)
	e.Regs[top] = v
	e.SetTag(top, classify(v))
	e.FIP = m.PC
}

// fpop marks st0 empty and increments the top pointer.
func (m *Machine) fpop() {
	e := &m.FP
	top := e.Top()
	e.SetTag(top, isa.TagEmpty)
	e.SetTop((top + 1) & 7)
}

// fget reads st(i), honouring the tag word.  The valid-tag case stays
// small enough to inline into the interpreter loops; the reconstruction
// of zero/special/empty slots is outlined.
func (m *Machine) fget(i int) float64 {
	e := &m.FP
	p := (e.Top() + i) & 7
	if e.Tag(p) == isa.TagValid {
		return e.Regs[p]
	}
	return e.reconstruct(p)
}

// reconstruct materializes the value of a slot whose tag is not "valid".
func (e *FPEnv) reconstruct(p int) float64 {
	switch e.Tag(p) {
	case isa.TagEmpty:
		return indefinite
	case isa.TagZero:
		return 0
	case isa.TagSpecial:
		v := e.Regs[p]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return v
		}
		// The slot's stored value does not match its "special" tag — the
		// tag word was corrupted.  The x87 would interpret the register's
		// bits under the wrong class; the observable effect is a NaN.
		return indefinite
	default:
		return e.Regs[p]
	}
}

// fset overwrites st(i) in place (no stack motion).
func (m *Machine) fset(i int, v float64) {
	e := &m.FP
	p := (e.Top() + i) & 7
	e.Regs[p] = v
	e.SetTag(p, classify(v))
	e.FIP = m.PC
}
