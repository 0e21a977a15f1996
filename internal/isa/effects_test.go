package isa

import (
	"strings"
	"testing"
)

// TestEffectsComplete asserts every opcode below opMax has an effects
// entry and that the entry is consistent with the assembler's operand
// table and the classification predicates.
func TestEffectsComplete(t *testing.T) {
	for i := 0; i < NumOpcodes; i++ {
		op := Op(i)
		if !op.HasEffects() {
			t.Errorf("%s (%d): no effects metadata", op, i)
			continue
		}
		if !op.Valid() {
			continue // OpInvalid: defined as "no effect", nothing to cross-check
		}
		info := opTable[op]
		// Slot usage must agree with the assembler's operand table.
		if got := op.readsOp(OperandRc); got != info.hasRc {
			t.Errorf("%s: reads rc = %v, opTable hasRc = %v", op, got, info.hasRc)
		}
		if op.writesOp(OperandRd) && !info.hasRd {
			t.Errorf("%s: writes rd but opTable lacks hasRd", op)
		}
		if op.readsOp(OperandRa) && !info.hasRa {
			t.Errorf("%s: reads ra but opTable lacks hasRa", op)
		}
		if op.readsOp(OperandRb) && !info.hasRb {
			t.Errorf("%s: reads rb but opTable lacks hasRb", op)
		}
		// Memory-form opcodes must either load or store.
		if info.memForm && !op.IsLoad() && !op.IsStore() {
			t.Errorf("%s: memForm but neither IsLoad nor IsStore", op)
		}
		// Conditional branches read flags; jmp/call do not.
		if op.IsBranch() && op != OpJmp && op != OpCall && !op.ReadsFlags() {
			t.Errorf("%s: conditional branch must read flags", op)
		}
		if (op == OpJmp || op == OpCall) && op.ReadsFlags() {
			t.Errorf("%s: unconditional transfer must not read flags", op)
		}
		// FP bookkeeping sanity: popping more than the required minimum
		// depth would mean the table contradicts itself.
		eff := effTable[op]
		if eff.fpPop > eff.fpMin {
			t.Errorf("%s: fpPop %d > fpMin %d", op, eff.fpPop, eff.fpMin)
		}
		fpTouch := op.readsOp(OperandFP) || op.writesOp(OperandFP)
		if (eff.fpPop != 0 || eff.fpPush != 0 || eff.fpMin != 0) && !fpTouch {
			t.Errorf("%s: FP depth effects without an FP operand", op)
		}
	}
}

func TestEffectsSpotChecks(t *testing.T) {
	if !OpSt.IsStore() || OpSt.IsLoad() {
		t.Error("st must be store-only")
	}
	if !OpLd.IsLoad() || OpLd.IsStore() {
		t.Error("ld must be load-only")
	}
	if !OpPush.IsStore() || !OpPop.IsLoad() || !OpCall.IsStore() || !OpRet.IsLoad() {
		t.Error("stack ops must touch memory")
	}
	if !OpCmp.WritesFlags() || OpCmp.ReadsFlags() {
		t.Error("cmp writes flags wholesale and reads none")
	}
	if !OpFxam.WritesFlags() || !OpFxam.ReadsFlags() {
		t.Error("fxam partially updates flags: must read and write them")
	}
	if !OpSys.IsSyscall() || OpMovi.IsSyscall() {
		t.Error("IsSyscall misclassifies")
	}

	// Instr-level register extraction, including the Rc slot sharing.
	st := Instr{Op: OpSt, Ra: R1, Rb: RegNone, Imm: 8}
	st.SetRc(R4)
	src := st.SrcGPRs()
	if len(src) != 2 || !containsInt(src, int(R1)) || !containsInt(src, int(R4)) {
		t.Errorf("st r4 -> [r1+8]: SrcGPRs = %v, want [r1 r4]", src)
	}
	if d := st.DstGPRs(); len(d) != 0 {
		t.Errorf("st: DstGPRs = %v, want none", d)
	}
	pop := Instr{Op: OpPop, Rd: R2}
	if d := pop.DstGPRs(); len(d) != 2 || !containsInt(d, int(R2)) || !containsInt(d, int(SP)) {
		t.Errorf("pop r2: DstGPRs = %v, want [r2 sp]", d)
	}

	// Operand validation mirrors the interpreter: RegNone is legal only
	// as a memory-form base/index.
	ld := Instr{Op: OpLd, Rd: R0, Ra: RegNone, Rb: RegNone, Imm: 0x1000}
	if !ld.OperandsValid() {
		t.Error("absolute ld must validate")
	}
	bad := Instr{Op: OpAdd, Rd: R0, Ra: 12, Rb: R1}
	if bad.OperandsValid() {
		t.Error("add with ra=12 must not validate")
	}
	if (Instr{Op: OpPush, Ra: RegNone}).OperandsValid() {
		t.Error("push none must not validate")
	}

	// FP depth requirements, including the st(imm) adjustment.
	if min, delta := (Instr{Op: OpFaddp}).FPEffect(); min != 2 || delta != -1 {
		t.Errorf("faddp: FPEffect = (%d,%d), want (2,-1)", min, delta)
	}
	if min, delta := (Instr{Op: OpFxch, Imm: 3}).FPEffect(); min != 4 || delta != 0 {
		t.Errorf("fxch st(3): FPEffect = (%d,%d), want (4,0)", min, delta)
	}
	if min, _ := (Instr{Op: OpFldst, Imm: -1}).FPEffect(); min <= NumFPReg {
		t.Errorf("fldst st(-1): min %d must exceed the register file", min)
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestDisasmRoundTrip encodes, decodes and disassembles every valid
// opcode with plausible operands and checks the decoded instruction and
// its rendering survive the trip.
func TestDisasmRoundTrip(t *testing.T) {
	resolve := func(addr uint32) string {
		if addr == 0x08048040 {
			return "some_func"
		}
		return ""
	}
	for i := 1; i < NumOpcodes; i++ {
		op := Op(i)
		in := Instr{Op: op}
		info := opTable[op]
		if info.hasRd {
			in.Rd = R0
		}
		if info.hasRa {
			in.Ra = R1
		} else if !info.hasRc {
			in.Ra = 0
		}
		if info.hasRb {
			in.Rb = R2
		}
		if info.memForm {
			in.Ra, in.Rb, in.Imm = R1, RegNone, 16
		}
		if info.hasRc {
			in.SetRc(R3)
		}
		if op.IsBranch() {
			in.Imm = 0x08048040
		} else if info.hasImm && in.Imm == 0 {
			in.Imm = 7
		}

		var buf [InstrBytes]byte
		in.Encode(buf[:])
		back := Decode(buf[:])
		if back != in {
			t.Errorf("%s: decode(encode) = %+v, want %+v", op, back, in)
		}
		plain := back.String()
		if plain == "" || !strings.HasPrefix(plain, op.String()) {
			t.Errorf("%s: String() = %q lacks mnemonic prefix", op, plain)
		}
		dis := back.Disasm(resolve)
		if !strings.HasPrefix(dis, plain) {
			t.Errorf("%s: Disasm %q does not extend String %q", op, dis, plain)
		}
		if op.IsBranch() && !strings.Contains(dis, "<some_func>") {
			t.Errorf("%s: Disasm %q lacks resolved target annotation", op, dis)
		}
		if back.Disasm(nil) != plain {
			t.Errorf("%s: Disasm(nil) = %q, want String %q", op, back.Disasm(nil), plain)
		}
	}
}
