package vm

import (
	"math"
	"math/bits"

	"mpifault/internal/isa"
)

// Superblock execution tier.
//
// The predecode cache (predecode.go) removed the per-instruction decode;
// what remained of the interpreter's cost was the per-instruction
// bookkeeping around each isa.Instr: the fetch-path slot computation and
// dirty check, the opcode switch re-dispatching immediate ALU forms, the
// operand-register validation, the Instrs/PC advance and the MinSP probe.
// This tier compiles the predecoded text once per image into a flat
// micro-op program — one specialized uop per slot, with operand registers
// pre-validated and immediate ALU forms pre-resolved to their base
// operation — plus a run-end table: end[s] is one past the last uop
// reachable from slot s before a control transfer (branch, call, ret,
// sys) or an uncompilable encoding.  Machine.Run then executes whole
// straight-line runs ("superblocks") between event boundaries: one
// Instrs advance, one PC materialization and one bounds/dirty lookup per
// block edge instead of per instruction.
//
// Correctness anchors, in the order they bit:
//
//   - Event boundaries are exact.  runBlocks clips every block to the
//     current event limit (TriggerAt, budget, the 4096-instruction stop
//     poll), so triggers fire and budgets exhaust at the identical
//     retired-instruction counts as the per-instruction loop.  A block
//     interrupted mid-run resumes at the interior slot — the per-slot
//     end table makes every slot a valid block entry, so branching or
//     resuming into the middle of a run needs no leader analysis.
//   - Traps materialize precise state.  Every trapping uop finalizes
//     m.PC to the faulting instruction and m.Instrs to include it
//     (matching Step, which counts an instruction before executing it);
//     registers, flags and the FP environment are updated in place and
//     are therefore precise by construction.  FP-stack writes set
//     FP.FIP from the true per-instruction PC — FIP is an injection
//     target, so a stale block-entry PC would change campaign outcomes.
//   - Text corruption invalidates compiled blocks.  markTextDirty
//     truncates the machine-local copy of the run-end table so no run
//     executes into an overwritten slot, and a dirty slot itself (end ==
//     slot) falls back to Step's byte-decode path, preserving text-fault
//     SIGILL semantics exactly.
//   - Tracers see per-PC callbacks.  A non-nil Tracer gets the same
//     Exec/Load/Store stream, in the same order, as the per-instruction
//     path, so the flight recorder and working-set profiler observe
//     identical executions (the differential tests hash the PC stream).
//   - Snapshots carry no compiled state.  The uop program and shared
//     run-end table are derived from the image; Snapshot captures only
//     textDirty, and NewMachine re-derives the truncations from it.

// sbKind enumerates the specialized micro-ops.  Immediate ALU forms are
// distinct kinds (the alui->alu remap happens at compile time), and
// operand validation has already succeeded for every kind but sbBail.
type sbKind uint8

const (
	// sbBail marks a slot the compiler could not specialize (invalid
	// opcode, out-of-range register operand): execution falls back to
	// Step, which re-decodes and raises the precise trap.  It is a run
	// terminator, and a zero-length run (a dirty slot) bails too.
	sbBail sbKind = iota
	sbNop
	sbMovi
	sbMovr
	sbAdd
	sbSub
	sbMul
	sbDivs
	sbRems
	sbAnd
	sbOr
	sbXor
	sbShl
	sbShr
	sbSar
	sbNeg
	sbAddi
	sbMuli
	sbAndi
	sbOri
	sbXori
	sbShli
	sbShri
	sbSari
	sbCmp
	sbCmpi
	sbPush
	sbPop
	sbLd
	sbSt
	sbLdb
	sbStb
	sbFld
	sbFst
	sbFstp
	sbFldz
	sbFld1
	sbFldst
	sbFaddp
	sbFsubp
	sbFmulp
	sbFdivp
	sbFchs
	sbFabs
	sbFsqrt
	sbFxch
	sbFcomp
	sbFxam
	sbFild
	sbFist
	// Terminators: the compiler guarantees these appear only as the last
	// uop of a run.
	sbJmp
	sbBeq
	sbBne
	sbBlt
	sbBge
	sbBle
	sbBgt
	sbBltu
	sbBgeu
	sbBun
	sbCall
	sbCallr
	sbRet
	sbSys
)

// uop is one compiled micro-op: the specialized kind plus the raw
// operand bytes and immediate of the source instruction.  Register
// operands are pre-validated (< NumGPR, or RegNone where the address
// form allows it), so handlers index the register file with &7 and no
// runtime check.
type uop struct {
	kind sbKind
	rd   uint8
	ra   uint8
	rb   uint8
	imm  int32
}

const spByte = uint8(isa.SP)

// gprOK reports whether r encodes a real general-purpose register.
func gprOK(r uint8) bool { return int(r) < isa.NumGPR }

// eaOK reports whether r is usable in the ra+index(rb)+imm address form.
func eaOK(r uint8) bool { return r == isa.RegNone || gprOK(r) }

// compileUop specializes one decoded instruction.  Anything whose
// execution would raise an encoding trap — or that the tier does not
// model — compiles to sbBail.
func compileUop(in isa.Instr) uop {
	u := uop{rd: in.Rd, ra: in.Ra, rb: in.Rb, imm: in.Imm}
	bail := uop{kind: sbBail}
	switch in.Op {
	case isa.OpNop:
		u.kind = sbNop
	case isa.OpMovi:
		if !gprOK(in.Rd) {
			return bail
		}
		u.kind = sbMovi
	case isa.OpMovr:
		if !gprOK(in.Rd) || !gprOK(in.Ra) {
			return bail
		}
		u.kind = sbMovr
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDivs, isa.OpRems,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar:
		if !gprOK(in.Rd) || !gprOK(in.Ra) || !gprOK(in.Rb) {
			return bail
		}
		u.kind = sbAdd + sbKind(in.Op-isa.OpAdd)
	case isa.OpNeg:
		if !gprOK(in.Rd) || !gprOK(in.Ra) {
			return bail
		}
		u.kind = sbNeg
	case isa.OpAddi, isa.OpMuli, isa.OpAndi, isa.OpOri, isa.OpXori,
		isa.OpShli, isa.OpShri, isa.OpSari:
		if !gprOK(in.Rd) || !gprOK(in.Ra) {
			return bail
		}
		u.kind = sbAddi + sbKind(in.Op-isa.OpAddi)
		if in.Op == isa.OpShli || in.Op == isa.OpShri || in.Op == isa.OpSari {
			u.imm = in.Imm & 31 // the shift count is taken mod 32
		}
	case isa.OpCmp:
		if !gprOK(in.Ra) || !gprOK(in.Rb) {
			return bail
		}
		u.kind = sbCmp
	case isa.OpCmpi:
		if !gprOK(in.Ra) {
			return bail
		}
		u.kind = sbCmpi
	case isa.OpJmp:
		u.kind = sbJmp
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBle,
		isa.OpBgt, isa.OpBltu, isa.OpBgeu, isa.OpBun:
		u.kind = sbBeq + sbKind(in.Op-isa.OpBeq)
	case isa.OpCall:
		u.kind = sbCall
	case isa.OpCallr:
		if !gprOK(in.Ra) {
			return bail
		}
		u.kind = sbCallr
	case isa.OpRet:
		u.kind = sbRet
	case isa.OpPush:
		if !gprOK(in.Ra) {
			return bail
		}
		u.kind = sbPush
	case isa.OpPop:
		if !gprOK(in.Rd) {
			return bail
		}
		u.kind = sbPop
	case isa.OpLd, isa.OpLdb:
		if !gprOK(in.Rd) || !eaOK(in.Ra) || !eaOK(in.Rb) {
			return bail
		}
		if in.Op == isa.OpLd {
			u.kind = sbLd
		} else {
			u.kind = sbLdb
		}
	case isa.OpSt, isa.OpStb:
		// The store source rides in the Rd slot (see isa.Instr.Rc).
		if !gprOK(in.Rc()) || !eaOK(in.Ra) || !eaOK(in.Rb) {
			return bail
		}
		if in.Op == isa.OpSt {
			u.kind = sbSt
		} else {
			u.kind = sbStb
		}
	case isa.OpFld, isa.OpFst, isa.OpFstp:
		if !eaOK(in.Ra) || !eaOK(in.Rb) {
			return bail
		}
		switch in.Op {
		case isa.OpFld:
			u.kind = sbFld
		case isa.OpFst:
			u.kind = sbFst
		default:
			u.kind = sbFstp
		}
	case isa.OpFldz:
		u.kind = sbFldz
	case isa.OpFld1:
		u.kind = sbFld1
	case isa.OpFldst:
		u.kind = sbFldst
	case isa.OpFaddp:
		u.kind = sbFaddp
	case isa.OpFsubp:
		u.kind = sbFsubp
	case isa.OpFmulp:
		u.kind = sbFmulp
	case isa.OpFdivp:
		u.kind = sbFdivp
	case isa.OpFchs:
		u.kind = sbFchs
	case isa.OpFabs:
		u.kind = sbFabs
	case isa.OpFsqrt:
		u.kind = sbFsqrt
	case isa.OpFxch:
		u.kind = sbFxch
	case isa.OpFcomp:
		u.kind = sbFcomp
	case isa.OpFxam:
		u.kind = sbFxam
	case isa.OpFild:
		if !gprOK(in.Ra) {
			return bail
		}
		u.kind = sbFild
	case isa.OpFist:
		if !gprOK(in.Rd) {
			return bail
		}
		u.kind = sbFist
	case isa.OpSys:
		u.kind = sbSys
	default:
		return bail
	}
	return u
}

// terminates reports whether k ends a straight-line run.
func (k sbKind) terminates() bool { return k == sbBail || k >= sbJmp }

// compileSuperblocks compiles the predecoded text into the per-slot uop
// program and the shared run-end table: end[s] is one past the last slot
// of the straight-line run entered at s, so the block at any slot s is
// prog[s:end[s]].  end is non-decreasing; the executor and the dirty-
// slot truncation both rely on that.
func compileSuperblocks(instrs []isa.Instr) ([]uop, []uint32) {
	prog := make([]uop, len(instrs))
	end := make([]uint32, len(instrs))
	for i, in := range instrs {
		prog[i] = compileUop(in)
	}
	for i := len(prog) - 1; i >= 0; i-- {
		if prog[i].kind.terminates() || i == len(prog)-1 {
			end[i] = uint32(i + 1)
		} else {
			end[i] = end[i+1]
		}
	}
	return prog, end
}

// DisableSuperblocks forces the machine back onto the per-instruction
// interpreter (still through the predecode cache).  It is the reference
// arm of the differential tests and FuzzSuperblockLockstep, which check
// that compiled execution is semantically invisible; no campaign sets it.
func (m *Machine) DisableSuperblocks() {
	m.sbProg, m.sbEnd, m.sbEndOwned = nil, nil, false
}

// sbInvalidate truncates every compiled run that would execute into
// slot d, cloning the shared run-end table on first use.  The dirty
// slot's own run becomes empty (end == slot), which routes execution to
// Step's byte-decode path; earlier slots of the same run stop just
// before d.  Truncation preserves the table's monotonicity, so the
// backward walk can stop at the first run that already ends at or
// before d.
func (m *Machine) sbInvalidate(d uint32) {
	if m.sbEnd == nil || d >= uint32(len(m.sbEnd)) {
		return
	}
	if !m.sbEndOwned {
		m.sbEnd = append([]uint32(nil), m.sbEnd...)
		m.sbEndOwned = true
	}
	m.sbEnd[d] = d
	for s := d; s > 0; {
		s--
		if m.sbEnd[s] <= d {
			break
		}
		m.sbEnd[s] = d
	}
}

// rebuildSBDirty re-derives the run-end truncations from the dirty-slot
// bitmap; NewMachine uses it because snapshots carry the bitmap but no
// compiled state.
func (m *Machine) rebuildSBDirty() {
	for w, word := range m.textDirty {
		for word != 0 {
			m.sbInvalidate(uint32(w)*64 + uint32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// runBlocks retires instructions through compiled superblocks until
// m.Instrs reaches limit or execution traps.  Unaligned, out-of-text
// and dirty-slot PCs take single per-instruction steps, so every
// corrupted encoding faults exactly as it would without the tier.
func (m *Machine) runBlocks(limit uint64) *Trap {
	for m.Instrs < limit {
		off := m.PC - m.text.base
		slot := off / isa.InstrBytes
		if off%isa.InstrBytes != 0 || slot >= uint32(len(m.sbEnd)) {
			if t := m.Step(); t != nil {
				return t
			}
			continue
		}
		n := uint64(m.sbEnd[slot]) - uint64(slot)
		if n == 0 { // dirty slot: byte-decode exactly one instruction
			if t := m.Step(); t != nil {
				return t
			}
			continue
		}
		if rem := limit - m.Instrs; n > rem {
			n = rem // split the block at the event boundary
		}
		if t := m.execBlock(slot, uint32(n)); t != nil {
			return t
		}
	}
	return nil
}

// blockTrap finalizes precise architectural state for a trap raised by
// the i-th uop of a block entered at entry: the instruction is counted
// (Step counts before executing) and the trap's PC is rewritten to the
// faulting instruction, since memory helpers stamp traps with m.PC,
// which is stale inside a block.
func (m *Machine) blockTrap(entry uint32, i int, t *Trap) *Trap {
	m.Instrs += uint64(i) + 1
	m.PC = entry + uint32(i)*isa.InstrBytes
	t.PC = m.PC
	return t
}

// execBlock executes n uops starting at slot (the caller has clipped n
// to the run end and the event limit).  On a control transfer or trap it
// finalizes PC/Instrs and returns; a straight-line exit advances both by
// the whole block.
func (m *Machine) execBlock(slot, n uint32) *Trap {
	uops := m.sbProg[slot : slot+n]
	entry := m.PC
	traced := m.Tracer != nil
	for i := 0; i < len(uops); i++ {
		u := uops[i] // 8 bytes; copying beats re-loading fields through a pointer
		if u.kind == sbBail {
			// Let Step fetch, count and trap with its own precise
			// semantics (it also issues the Tracer.Exec callback).
			m.Instrs += uint64(i)
			m.PC = entry + uint32(i)*isa.InstrBytes
			return m.Step()
		}
		if traced {
			m.Tracer.Exec(entry + uint32(i)*isa.InstrBytes)
		}
		switch u.kind {
		case sbNop:

		case sbMovi:
			m.Regs[u.rd&7] = uint32(u.imm)
			if u.rd == spByte {
				m.updateMinSP()
			}

		case sbMovr:
			m.Regs[u.rd&7] = m.Regs[u.ra&7]
			if u.rd == spByte {
				m.updateMinSP()
			}

		case sbAdd:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] + m.Regs[u.rb&7]
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbSub:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] - m.Regs[u.rb&7]
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbMul:
			m.Regs[u.rd&7] = uint32(int32(m.Regs[u.ra&7]) * int32(m.Regs[u.rb&7]))
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbDivs, sbRems:
			nmr := int32(m.Regs[u.ra&7])
			d := int32(m.Regs[u.rb&7])
			if d == 0 || (nmr == math.MinInt32 && d == -1) {
				return m.blockTrap(entry, i,
					&Trap{Kind: TrapFpe, Msg: "integer divide error"})
			}
			if u.kind == sbDivs {
				m.Regs[u.rd&7] = uint32(nmr / d)
			} else {
				m.Regs[u.rd&7] = uint32(nmr % d)
			}
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbAnd:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] & m.Regs[u.rb&7]
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbOr:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] | m.Regs[u.rb&7]
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbXor:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] ^ m.Regs[u.rb&7]
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbShl:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] << (m.Regs[u.rb&7] & 31)
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbShr:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] >> (m.Regs[u.rb&7] & 31)
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbSar:
			m.Regs[u.rd&7] = uint32(int32(m.Regs[u.ra&7]) >> (m.Regs[u.rb&7] & 31))
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbNeg:
			m.Regs[u.rd&7] = uint32(-int32(m.Regs[u.ra&7]))
			if u.rd == spByte {
				m.updateMinSP()
			}

		case sbAddi:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] + uint32(u.imm)
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbMuli:
			m.Regs[u.rd&7] = uint32(int32(m.Regs[u.ra&7]) * u.imm)
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbAndi:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] & uint32(u.imm)
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbOri:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] | uint32(u.imm)
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbXori:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] ^ uint32(u.imm)
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbShli:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] << uint32(u.imm)
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbShri:
			m.Regs[u.rd&7] = m.Regs[u.ra&7] >> uint32(u.imm)
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbSari:
			m.Regs[u.rd&7] = uint32(int32(m.Regs[u.ra&7]) >> uint32(u.imm))
			if u.rd == spByte {
				m.updateMinSP()
			}

		case sbCmp:
			m.setIntFlags(m.Regs[u.ra&7], m.Regs[u.rb&7])
		case sbCmpi:
			m.setIntFlags(m.Regs[u.ra&7], uint32(u.imm))

		case sbPush:
			if t := m.push(m.Regs[u.ra&7]); t != nil {
				return m.blockTrap(entry, i, t)
			}
			m.updateMinSP()
		case sbPop:
			v, t := m.pop()
			if t != nil {
				return m.blockTrap(entry, i, t)
			}
			m.Regs[u.rd&7] = v
			if u.rd == spByte {
				m.updateMinSP()
			}

		case sbLd:
			addr := uint32(u.imm)
			if u.ra != isa.RegNone {
				addr += m.Regs[u.ra&7]
			}
			if u.rb != isa.RegNone {
				addr += m.Regs[u.rb&7]
			}
			v, t := m.Load32(addr)
			if t != nil {
				return m.blockTrap(entry, i, t)
			}
			m.Regs[u.rd&7] = v
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbSt:
			addr := uint32(u.imm)
			if u.ra != isa.RegNone {
				addr += m.Regs[u.ra&7]
			}
			if u.rb != isa.RegNone {
				addr += m.Regs[u.rb&7]
			}
			if t := m.Store32(addr, m.Regs[u.rd&7]); t != nil {
				return m.blockTrap(entry, i, t)
			}
		case sbLdb:
			addr := uint32(u.imm)
			if u.ra != isa.RegNone {
				addr += m.Regs[u.ra&7]
			}
			if u.rb != isa.RegNone {
				addr += m.Regs[u.rb&7]
			}
			v, t := m.Load8(addr)
			if t != nil {
				return m.blockTrap(entry, i, t)
			}
			m.Regs[u.rd&7] = uint32(v)
			if u.rd == spByte {
				m.updateMinSP()
			}
		case sbStb:
			addr := uint32(u.imm)
			if u.ra != isa.RegNone {
				addr += m.Regs[u.ra&7]
			}
			if u.rb != isa.RegNone {
				addr += m.Regs[u.rb&7]
			}
			if t := m.Store8(addr, byte(m.Regs[u.rd&7])); t != nil {
				return m.blockTrap(entry, i, t)
			}

		// The FP-stack cases expand fpush/fpop/fget/fset (fpu.go) by hand
		// — same field updates, same order — because the helpers exceed
		// the compiler's inline budget and FP-heavy kernels pay a call
		// per stack operation.  The differential tests hold the two
		// spellings bit-identical.

		case sbFld:
			// fpush records FP.FIP = m.PC; materialize the true PC first
			// (FIP is a fault-injection target, so precision matters).
			m.PC = entry + uint32(i)*isa.InstrBytes
			addr := uint32(u.imm)
			if u.ra != isa.RegNone {
				addr += m.Regs[u.ra&7]
			}
			if u.rb != isa.RegNone {
				addr += m.Regs[u.rb&7]
			}
			v, t := m.LoadF64(addr)
			if t != nil {
				return m.blockTrap(entry, i, t)
			}
			e := &m.FP
			top := (e.Top() - 1) & 7
			e.SetTop(top)
			e.Regs[top] = v
			e.SetTag(top, classify(v))
			e.FIP = m.PC
			e.FOO = addr
		case sbFst, sbFstp:
			addr := uint32(u.imm)
			if u.ra != isa.RegNone {
				addr += m.Regs[u.ra&7]
			}
			if u.rb != isa.RegNone {
				addr += m.Regs[u.rb&7]
			}
			e := &m.FP
			top := e.Top()
			v := e.Regs[top]
			if e.Tag(top) != isa.TagValid {
				v = e.reconstruct(top)
			}
			if t := m.StoreF64(addr, v); t != nil {
				return m.blockTrap(entry, i, t)
			}
			e.FOO = addr
			if u.kind == sbFstp {
				e.SetTag(top, isa.TagEmpty)
				e.SetTop((top + 1) & 7)
			}

		case sbFldz, sbFld1:
			m.PC = entry + uint32(i)*isa.InstrBytes
			v := float64(0)
			tag := isa.TagZero
			if u.kind == sbFld1 {
				v, tag = 1, isa.TagValid
			}
			e := &m.FP
			top := (e.Top() - 1) & 7
			e.SetTop(top)
			e.Regs[top] = v
			e.SetTag(top, tag)
			e.FIP = m.PC
		case sbFldst:
			m.PC = entry + uint32(i)*isa.InstrBytes
			e := &m.FP
			p := (e.Top() + int(u.imm)) & 7
			v := e.Regs[p]
			if e.Tag(p) != isa.TagValid {
				v = e.reconstruct(p)
			}
			top := (e.Top() - 1) & 7
			e.SetTop(top)
			e.Regs[top] = v
			e.SetTag(top, classify(v))
			e.FIP = m.PC

		case sbFaddp, sbFsubp, sbFmulp, sbFdivp:
			m.PC = entry + uint32(i)*isa.InstrBytes
			e := &m.FP
			top := e.Top()
			p1 := (top + 1) & 7
			a := e.Regs[top] // st0
			if e.Tag(top) != isa.TagValid {
				a = e.reconstruct(top)
			}
			b := e.Regs[p1] // st1
			if e.Tag(p1) != isa.TagValid {
				b = e.reconstruct(p1)
			}
			var r float64
			switch u.kind {
			case sbFaddp:
				r = b + a
			case sbFsubp:
				r = b - a
			case sbFmulp:
				r = b * a
			default:
				r = b / a
			}
			e.SetTag(top, isa.TagEmpty) // fpop
			e.SetTop(p1)
			e.Regs[p1] = r // fset(0, r)
			e.SetTag(p1, classify(r))
			e.FIP = m.PC

		case sbFchs, sbFabs, sbFsqrt:
			m.PC = entry + uint32(i)*isa.InstrBytes
			e := &m.FP
			top := e.Top()
			v := e.Regs[top]
			if e.Tag(top) != isa.TagValid {
				v = e.reconstruct(top)
			}
			switch u.kind {
			case sbFchs:
				v = -v
			case sbFabs:
				v = math.Abs(v)
			default:
				v = math.Sqrt(v)
			}
			e.Regs[top] = v
			e.SetTag(top, classify(v))
			e.FIP = m.PC
		case sbFxch:
			m.PC = entry + uint32(i)*isa.InstrBytes
			j := int(u.imm)
			a, b := m.fget(0), m.fget(j)
			m.fset(0, b)
			m.fset(j, a)

		case sbFcomp:
			e := &m.FP
			top := e.Top()
			p1 := (top + 1) & 7
			a := e.Regs[top]
			if e.Tag(top) != isa.TagValid {
				a = e.reconstruct(top)
			}
			b := e.Regs[p1]
			if e.Tag(p1) != isa.TagValid {
				b = e.reconstruct(p1)
			}
			e.SetTag(top, isa.TagEmpty) // fpop
			e.SetTag(p1, isa.TagEmpty)  // fpop
			e.SetTop((top + 2) & 7)
			m.Flags = 0
			switch {
			case math.IsNaN(a) || math.IsNaN(b):
				m.Flags |= isa.FlagUN
			case a == b:
				m.Flags |= isa.FlagZ
			case a < b:
				m.Flags |= isa.FlagLT | isa.FlagUL
			}
		case sbFxam:
			v := m.fget(0)
			m.Flags &^= isa.FlagZ | isa.FlagUN
			if math.IsNaN(v) {
				m.Flags |= isa.FlagZ | isa.FlagUN
			} else if math.IsInf(v, 0) {
				m.Flags |= isa.FlagZ
			}

		case sbFild:
			m.PC = entry + uint32(i)*isa.InstrBytes
			v := float64(int32(m.Regs[u.ra&7]))
			e := &m.FP
			top := (e.Top() - 1) & 7
			e.SetTop(top)
			e.Regs[top] = v
			e.SetTag(top, classify(v))
			e.FIP = m.PC
		case sbFist:
			v := m.fget(0)
			m.fpop()
			if math.IsNaN(v) || v >= math.MaxInt32 || v <= math.MinInt32-1 {
				m.Regs[u.rd&7] = 0x80000000
			} else {
				m.Regs[u.rd&7] = uint32(int32(v))
			}
			if u.rd == spByte {
				m.updateMinSP()
			}

		// Terminators: always the last uop of the span (the run-end
		// table guarantees it); each finalizes Instrs and PC.
		case sbJmp:
			m.Instrs += uint64(i) + 1
			m.PC = uint32(u.imm)
			return nil
		case sbBeq, sbBne, sbBlt, sbBge, sbBle, sbBgt, sbBltu, sbBgeu, sbBun:
			m.Instrs += uint64(i) + 1
			if sbBranchTaken(u.kind, m.Flags) {
				m.PC = uint32(u.imm)
			} else {
				m.PC = entry + uint32(i+1)*isa.InstrBytes
			}
			return nil
		case sbCall:
			if t := m.push(entry + uint32(i+1)*isa.InstrBytes); t != nil {
				return m.blockTrap(entry, i, t)
			}
			m.updateMinSP()
			m.Instrs += uint64(i) + 1
			m.PC = uint32(u.imm)
			return nil
		case sbCallr:
			if t := m.push(entry + uint32(i+1)*isa.InstrBytes); t != nil {
				return m.blockTrap(entry, i, t)
			}
			m.updateMinSP()
			m.Instrs += uint64(i) + 1
			// Read ra after the push, exactly as Step does: callr through
			// the stack pointer observes the decremented SP.
			m.PC = m.Regs[u.ra&7]
			return nil
		case sbRet:
			v, t := m.pop()
			if t != nil {
				return m.blockTrap(entry, i, t)
			}
			m.Instrs += uint64(i) + 1
			m.PC = v
			return nil
		case sbSys:
			m.Instrs += uint64(i) + 1
			if m.Handler == nil {
				m.PC = entry + uint32(i)*isa.InstrBytes
				return m.ill("no syscall handler")
			}
			m.PC = entry + uint32(i+1)*isa.InstrBytes // handler sees the resumption PC
			if t := m.Handler.Syscall(m, u.imm); t != nil {
				return t
			}
			m.updateMinSP()
			return nil
		}
	}
	m.Instrs += uint64(len(uops))
	m.PC = entry + uint32(len(uops))*isa.InstrBytes
	return nil
}

// sbBranchTaken mirrors Machine.branchTaken over the compiled kinds.
func sbBranchTaken(k sbKind, f uint32) bool {
	switch k {
	case sbBeq:
		return f&isa.FlagZ != 0
	case sbBne:
		return f&isa.FlagZ == 0
	case sbBlt:
		return f&isa.FlagLT != 0
	case sbBge:
		return f&isa.FlagLT == 0
	case sbBle:
		return f&(isa.FlagLT|isa.FlagZ) != 0
	case sbBgt:
		return f&(isa.FlagLT|isa.FlagZ) == 0
	case sbBltu:
		return f&isa.FlagUL != 0
	case sbBgeu:
		return f&isa.FlagUL == 0
	default: // sbBun
		return f&isa.FlagUN != 0
	}
}
