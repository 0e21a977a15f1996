package vm

import (
	"testing"
	"testing/quick"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/rng"
)

// aluOp is one instruction of a random straight-line ALU program over
// r0-r5.
type aluOp struct {
	kind uint8
	rd   int
	ra   int
	rb   int
	imm  int32
}

// randomALU draws seed's ALU program.
func randomALU(seed uint64) []aluOp {
	r := rng.New(seed)
	ops := make([]aluOp, 5+r.Intn(40))
	for i := range ops {
		ops[i] = aluOp{
			kind: uint8(r.Intn(11)),
			rd:   r.Intn(6),
			ra:   r.Intn(6),
			rb:   r.Intn(6),
			imm:  int32(r.Uint32()),
		}
	}
	return ops
}

// emitALU assembles ops into f.
func emitALU(f *asm.Func, ops []aluOp) {
	for _, o := range ops {
		switch o.kind {
		case 0:
			f.Movi(o.rd, o.imm)
		case 1:
			f.Add(o.rd, o.ra, o.rb)
		case 2:
			f.Sub(o.rd, o.ra, o.rb)
		case 3:
			f.Mul(o.rd, o.ra, o.rb)
		case 4:
			f.And(o.rd, o.ra, o.rb)
		case 5:
			f.Or(o.rd, o.ra, o.rb)
		case 6:
			f.Xor(o.rd, o.ra, o.rb)
		case 7:
			f.Shl(o.rd, o.ra, o.rb)
		case 8:
			f.Shr(o.rd, o.ra, o.rb)
		case 9:
			f.Sar(o.rd, o.ra, o.rb)
		case 10:
			f.Addi(o.rd, o.ra, o.imm)
		}
	}
}

// TestDifferentialALU: random straight-line ALU programs over r0-r5 must
// leave the machine in exactly the state a direct Go evaluation predicts.
// This is the interpreter's strongest correctness check: any divergence
// in wrap-around, signedness or shift masking shows up immediately.
func TestDifferentialALU(t *testing.T) {
	run := func(seed uint64) bool {
		ops := randomALU(seed)

		// Reference evaluation.
		var ref [6]int32
		for _, o := range ops {
			a, b := ref[o.ra], ref[o.rb]
			switch o.kind {
			case 0:
				ref[o.rd] = o.imm
			case 1:
				ref[o.rd] = a + b
			case 2:
				ref[o.rd] = a - b
			case 3:
				ref[o.rd] = a * b
			case 4:
				ref[o.rd] = a & b
			case 5:
				ref[o.rd] = a | b
			case 6:
				ref[o.rd] = a ^ b
			case 7:
				ref[o.rd] = a << (uint32(b) & 31)
			case 8:
				ref[o.rd] = int32(uint32(a) >> (uint32(b) & 31))
			case 9:
				ref[o.rd] = a >> (uint32(b) & 31)
			case 10:
				ref[o.rd] = a + o.imm
			}
		}

		// Guest evaluation.
		b := asm.NewBuilder()
		m := b.Module("t", image.OwnerUser)
		f := m.Func("main")
		emitALU(f, ops)
		f.Sys(abi.SysExit)
		im, err := b.Link(asm.LinkConfig{})
		if err != nil {
			return false
		}
		mach := New(im)
		mach.Handler = &testHandler{}
		out := mach.Run(100_000)
		if out.Trap == nil || out.Trap.Kind != TrapExit {
			return false
		}
		for i := 0; i < 6; i++ {
			if int32(mach.Regs[i]) != ref[i] {
				t.Logf("seed %d: r%d = %d, want %d", seed, i, int32(mach.Regs[i]), ref[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// randomFPChain draws seed's FP chain: acc = vals[0], then
// acc = acc OP vals[i+1] for each ops[i] (0 add, 1 sub, 2 mul, 3 div).
func randomFPChain(seed uint64) (vals []float64, ops []int) {
	r := rng.New(seed)
	n := 1 + r.Intn(20)
	vals = make([]float64, n+1)
	ops = make([]int, n)
	for i := range vals {
		vals[i] = float64(int32(r.Uint32())) / 65536.0
	}
	for i := range ops {
		ops[i] = r.Intn(4)
	}
	return vals, ops
}

// emitFPChain assembles the chain into f, leaving acc in st0.
func emitFPChain(f *asm.Func, vals []float64, ops []int) {
	f.FldConst(vals[0]) // [acc]
	for i, o := range ops {
		f.FldConst(vals[i+1]) // [v, acc]
		switch o {
		case 0:
			f.Faddp()
		case 1:
			// Fsubp computes st1-st0 = acc - v.
			f.Fsubp()
		case 2:
			f.Fmulp()
		case 3:
			f.Fdivp()
		}
	}
}

// TestDifferentialFPChain: random FP expression chains through the x87
// stack match the same chain evaluated directly in Go float64 arithmetic
// (bit-exact, since both use IEEE binary64 operations in the same order).
func TestDifferentialFPChain(t *testing.T) {
	run := func(seed uint64) bool {
		vals, ops := randomFPChain(seed)

		// Reference: acc = vals[0]; acc = acc OP vals[i+1] ...
		acc := vals[0]
		for i, o := range ops {
			v := vals[i+1]
			switch o {
			case 0:
				acc += v
			case 1:
				acc -= v
			case 2:
				acc *= v
			case 3:
				acc /= v
			}
		}

		b := asm.NewBuilder()
		m := b.Module("t", image.OwnerUser)
		m.BSS("out", 8)
		f := m.Func("main")
		emitFPChain(f, vals, ops)
		f.FstpSym("out", 0)
		f.Sys(abi.SysExit)
		im, err := b.Link(asm.LinkConfig{})
		if err != nil {
			return false
		}
		mach := New(im)
		mach.Handler = &testHandler{}
		out := mach.Run(100_000)
		if out.Trap == nil || out.Trap.Kind != TrapExit {
			return false
		}
		sym, _ := im.Lookup("out")
		got, trap := mach.LoadF64(sym.Addr)
		if trap != nil {
			return false
		}
		return got == acc || (got != got && acc != acc) // NaN == NaN for this purpose
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
