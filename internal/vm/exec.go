package vm

import (
	"math"

	"mpifault/internal/isa"
)

// Step fetches, decodes and executes one instruction.  It returns nil to
// continue or a Trap describing why execution stopped.
func (m *Machine) Step() *Trap {
	// Fetch.  The hot path is a slot-aligned PC inside text whose
	// predecode slot is clean: the instruction comes straight out of the
	// image's shared predecoded table.  Everything else — text overwritten
	// by the injector, a bit-flipped PC that lost its alignment, or a wild
	// PC outside text — re-decodes the actual bytes, so corrupted
	// encodings fault exactly as they would without the cache.  There is
	// no execute permission, as on classic x86: a wild PC landing in data
	// decodes whatever bytes are there and almost always raises SIGILL on
	// the spot.
	var in isa.Instr
	if off := m.PC - m.text.base; off < m.text.length {
		slot := off / isa.InstrBytes
		if m.pre != nil && off%isa.InstrBytes == 0 &&
			slot < uint32(len(m.pre)) && !m.textSlotDirty(slot) {
			in = m.pre[slot]
		} else {
			if off+isa.InstrBytes > m.text.length {
				return &Trap{Kind: TrapSegv, PC: m.PC, Addr: m.PC, Msg: "instruction fetch"}
			}
			in = m.text.decodeAt(off)
		}
	} else {
		s, off := m.locate(m.PC, isa.InstrBytes, false)
		if s == nil {
			return &Trap{Kind: TrapSegv, PC: m.PC, Addr: m.PC, Msg: "instruction fetch"}
		}
		in = s.decodeAt(off)
	}
	if m.Tracer != nil {
		m.Tracer.Exec(m.PC)
	}
	m.Instrs++
	next := m.PC + isa.InstrBytes

	switch in.Op {
	case isa.OpNop:

	case isa.OpMovi:
		rd, ok := gpr(in.Rd)
		if !ok {
			return m.ill("movi rd")
		}
		m.Regs[rd] = uint32(in.Imm)

	case isa.OpMovr:
		rd, ok1 := gpr(in.Rd)
		ra, ok2 := gpr(in.Ra)
		if !ok1 || !ok2 {
			return m.ill("movr regs")
		}
		m.Regs[rd] = m.Regs[ra]

	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDivs, isa.OpRems,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar:
		rd, ok1 := gpr(in.Rd)
		ra, ok2 := gpr(in.Ra)
		rb, ok3 := gpr(in.Rb)
		if !ok1 || !ok2 || !ok3 {
			return m.ill("alu regs")
		}
		v, t := m.alu(in.Op, m.Regs[ra], m.Regs[rb])
		if t != nil {
			return t
		}
		m.Regs[rd] = v

	case isa.OpNeg:
		rd, ok1 := gpr(in.Rd)
		ra, ok2 := gpr(in.Ra)
		if !ok1 || !ok2 {
			return m.ill("neg regs")
		}
		m.Regs[rd] = uint32(-int32(m.Regs[ra]))

	case isa.OpAddi, isa.OpMuli, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpShli, isa.OpShri, isa.OpSari:
		rd, ok1 := gpr(in.Rd)
		ra, ok2 := gpr(in.Ra)
		if !ok1 || !ok2 {
			return m.ill("alui regs")
		}
		v, t := m.alu(in.Op.AluiBase(), m.Regs[ra], uint32(in.Imm))
		if t != nil {
			return t
		}
		m.Regs[rd] = v

	case isa.OpCmp:
		ra, ok1 := gpr(in.Ra)
		rb, ok2 := gpr(in.Rb)
		if !ok1 || !ok2 {
			return m.ill("cmp regs")
		}
		m.setIntFlags(m.Regs[ra], m.Regs[rb])

	case isa.OpCmpi:
		ra, ok := gpr(in.Ra)
		if !ok {
			return m.ill("cmpi reg")
		}
		m.setIntFlags(m.Regs[ra], uint32(in.Imm))

	case isa.OpJmp:
		next = uint32(in.Imm)

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBle, isa.OpBgt,
		isa.OpBltu, isa.OpBgeu, isa.OpBun:
		if m.branchTaken(in.Op) {
			next = uint32(in.Imm)
		}

	case isa.OpCall:
		if t := m.push(next); t != nil {
			return t
		}
		next = uint32(in.Imm)

	case isa.OpCallr:
		ra, ok := gpr(in.Ra)
		if !ok {
			return m.ill("callr reg")
		}
		if t := m.push(next); t != nil {
			return t
		}
		next = m.Regs[ra]

	case isa.OpRet:
		v, t := m.pop()
		if t != nil {
			return t
		}
		next = v

	case isa.OpPush:
		ra, ok := gpr(in.Ra)
		if !ok {
			return m.ill("push reg")
		}
		if t := m.push(m.Regs[ra]); t != nil {
			return t
		}

	case isa.OpPop:
		rd, ok := gpr(in.Rd)
		if !ok {
			return m.ill("pop reg")
		}
		v, t := m.pop()
		if t != nil {
			return t
		}
		m.Regs[rd] = v

	case isa.OpLd:
		rd, ok := gpr(in.Rd)
		addr, ok2 := m.ea(in.Ra, in.Rb, in.Imm)
		if !ok || !ok2 {
			return m.ill("ld regs")
		}
		v, t := m.Load32(addr)
		if t != nil {
			return t
		}
		m.Regs[rd] = v

	case isa.OpSt:
		rc, ok := gpr(in.Rc())
		addr, ok2 := m.ea(in.Ra, in.Rb, in.Imm)
		if !ok || !ok2 {
			return m.ill("st regs")
		}
		if t := m.Store32(addr, m.Regs[rc]); t != nil {
			return t
		}

	case isa.OpLdb:
		rd, ok := gpr(in.Rd)
		addr, ok2 := m.ea(in.Ra, in.Rb, in.Imm)
		if !ok || !ok2 {
			return m.ill("ldb regs")
		}
		v, t := m.Load8(addr)
		if t != nil {
			return t
		}
		m.Regs[rd] = uint32(v)

	case isa.OpStb:
		rc, ok := gpr(in.Rc())
		addr, ok2 := m.ea(in.Ra, in.Rb, in.Imm)
		if !ok || !ok2 {
			return m.ill("stb regs")
		}
		if t := m.Store8(addr, byte(m.Regs[rc])); t != nil {
			return t
		}

	case isa.OpFld:
		addr, ok := m.ea(in.Ra, in.Rb, in.Imm)
		if !ok {
			return m.ill("fld regs")
		}
		v, t := m.LoadF64(addr)
		if t != nil {
			return t
		}
		m.fpush(v)
		m.FP.FOO = addr

	case isa.OpFldz:
		m.fpush(0)

	case isa.OpFld1:
		m.fpush(1)

	case isa.OpFldst:
		m.fpush(m.fget(int(in.Imm)))

	case isa.OpFst, isa.OpFstp:
		addr, ok := m.ea(in.Ra, in.Rb, in.Imm)
		if !ok {
			return m.ill("fst regs")
		}
		if t := m.StoreF64(addr, m.fget(0)); t != nil {
			return t
		}
		m.FP.FOO = addr
		if in.Op == isa.OpFstp {
			m.fpop()
		}

	case isa.OpFaddp, isa.OpFsubp, isa.OpFmulp, isa.OpFdivp:
		a := m.fget(0) // st0
		b := m.fget(1) // st1
		var r float64
		switch in.Op {
		case isa.OpFaddp:
			r = b + a
		case isa.OpFsubp:
			r = b - a
		case isa.OpFmulp:
			r = b * a
		case isa.OpFdivp:
			r = b / a // IEEE: /0 gives ±Inf or NaN, never a trap
		}
		m.fpop()
		m.fset(0, r)

	case isa.OpFchs:
		m.fset(0, -m.fget(0))

	case isa.OpFabs:
		m.fset(0, math.Abs(m.fget(0)))

	case isa.OpFsqrt:
		m.fset(0, math.Sqrt(m.fget(0)))

	case isa.OpFxch:
		i := int(in.Imm)
		a, b := m.fget(0), m.fget(i)
		m.fset(0, b)
		m.fset(i, a)

	case isa.OpFcomp:
		a, b := m.fget(0), m.fget(1)
		m.fpop()
		m.fpop()
		m.Flags = 0
		switch {
		case math.IsNaN(a) || math.IsNaN(b):
			m.Flags |= isa.FlagUN
		case a == b:
			m.Flags |= isa.FlagZ
		case a < b:
			m.Flags |= isa.FlagLT | isa.FlagUL
		}

	case isa.OpFxam:
		v := m.fget(0)
		m.Flags &^= isa.FlagZ | isa.FlagUN
		if math.IsNaN(v) {
			m.Flags |= isa.FlagZ | isa.FlagUN
		} else if math.IsInf(v, 0) {
			m.Flags |= isa.FlagZ
		}

	case isa.OpFild:
		ra, ok := gpr(in.Ra)
		if !ok {
			return m.ill("fild reg")
		}
		m.fpush(float64(int32(m.Regs[ra])))

	case isa.OpFist:
		rd, ok := gpr(in.Rd)
		if !ok {
			return m.ill("fist reg")
		}
		v := m.fget(0)
		m.fpop()
		// x86 stores the "integer indefinite" value on NaN or overflow.
		if math.IsNaN(v) || v >= math.MaxInt32 || v <= math.MinInt32-1 {
			m.Regs[rd] = 0x80000000
		} else {
			m.Regs[rd] = uint32(int32(v))
		}

	case isa.OpSys:
		if m.Handler == nil {
			return m.ill("no syscall handler")
		}
		m.PC = next // the handler observes the resumption PC
		if t := m.Handler.Syscall(m, in.Imm); t != nil {
			return t
		}
		m.updateMinSP()
		return nil

	default:
		return m.ill("invalid opcode")
	}

	m.PC = next
	m.updateMinSP()
	return nil
}

// ill builds the SIGILL trap for a bad encoding at the current PC.  It is
// a method rather than a per-Step closure so the interpreter's hot path
// allocates nothing and builds no closure contexts.
func (m *Machine) ill(msg string) *Trap {
	return &Trap{Kind: TrapIll, PC: m.PC, Msg: msg}
}

// gpr validates a register operand byte.  A bit flip in an operand byte
// can produce a register index >= 8, which faults like a bad encoding.
func gpr(r uint8) (int, bool) {
	if int(r) < isa.NumGPR {
		return int(r), true
	}
	return 0, false
}

// ea computes the effective address of the ra + index(rb) + imm memory
// form.  RegNone contributes zero, which also provides absolute
// addressing.
func (m *Machine) ea(ra, rb uint8, imm int32) (uint32, bool) {
	var a uint32
	if ra != isa.RegNone {
		if int(ra) >= isa.NumGPR {
			return 0, false
		}
		a += m.Regs[ra]
	}
	if rb != isa.RegNone {
		if int(rb) >= isa.NumGPR {
			return 0, false
		}
		a += m.Regs[rb]
	}
	return a + uint32(imm), true
}

func (m *Machine) updateMinSP() {
	if sp := m.Regs[isa.SP]; sp < m.MinSP {
		m.MinSP = sp
	}
}

// alu evaluates a three-register integer operation.
func (m *Machine) alu(op isa.Op, a, b uint32) (uint32, *Trap) {
	switch op {
	case isa.OpAdd:
		return a + b, nil
	case isa.OpSub:
		return a - b, nil
	case isa.OpMul:
		return uint32(int32(a) * int32(b)), nil
	case isa.OpDivs, isa.OpRems:
		d := int32(b)
		n := int32(a)
		if d == 0 || (n == math.MinInt32 && d == -1) {
			// x86 raises #DE on both divide-by-zero and INT_MIN/-1.
			return 0, &Trap{Kind: TrapFpe, PC: m.PC, Msg: "integer divide error"}
		}
		if op == isa.OpDivs {
			return uint32(n / d), nil
		}
		return uint32(n % d), nil
	case isa.OpAnd:
		return a & b, nil
	case isa.OpOr:
		return a | b, nil
	case isa.OpXor:
		return a ^ b, nil
	case isa.OpShl:
		return a << (b & 31), nil
	case isa.OpShr:
		return a >> (b & 31), nil
	case isa.OpSar:
		return uint32(int32(a) >> (b & 31)), nil
	}
	return 0, &Trap{Kind: TrapIll, PC: m.PC, Msg: "alu"}
}

func (m *Machine) setIntFlags(a, b uint32) {
	m.Flags = 0
	if a == b {
		m.Flags |= isa.FlagZ
	}
	if int32(a) < int32(b) {
		m.Flags |= isa.FlagLT
	}
	if a < b {
		m.Flags |= isa.FlagUL
	}
}

func (m *Machine) branchTaken(op isa.Op) bool {
	f := m.Flags
	switch op {
	case isa.OpBeq:
		return f&isa.FlagZ != 0
	case isa.OpBne:
		return f&isa.FlagZ == 0
	case isa.OpBlt:
		return f&isa.FlagLT != 0
	case isa.OpBge:
		return f&isa.FlagLT == 0
	case isa.OpBle:
		return f&(isa.FlagLT|isa.FlagZ) != 0
	case isa.OpBgt:
		return f&(isa.FlagLT|isa.FlagZ) == 0
	case isa.OpBltu:
		return f&isa.FlagUL != 0
	case isa.OpBgeu:
		return f&isa.FlagUL == 0
	case isa.OpBun:
		return f&isa.FlagUN != 0
	}
	return false
}

func (m *Machine) push(v uint32) *Trap {
	sp := m.Regs[isa.SP] - 4
	if t := m.Store32(sp, v); t != nil {
		return t
	}
	m.Regs[isa.SP] = sp
	return nil
}

func (m *Machine) pop() (uint32, *Trap) {
	v, t := m.Load32(m.Regs[isa.SP])
	if t != nil {
		return 0, t
	}
	m.Regs[isa.SP] += 4
	return v, nil
}
