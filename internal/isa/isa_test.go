package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeTableComplete(t *testing.T) {
	for op := Op(1); op < Op(NumOpcodes); op++ {
		if op.String() == "op?" || op.String() == "" {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		if !op.Valid() {
			t.Errorf("opcode %d (%s) not Valid", op, op)
		}
	}
	if OpInvalid.Valid() {
		t.Error("OpInvalid must not be Valid")
	}
	if Op(NumOpcodes).Valid() {
		t.Error("out-of-range opcode must not be Valid")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, ra, rb uint8, imm int32) bool {
		in := Instr{Op: Op(op), Rd: rd, Ra: ra, Rb: rb, Imm: imm}
		var buf [InstrBytes]byte
		in.Encode(buf[:])
		out := Decode(buf[:])
		return in == out
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	f := func(b [InstrBytes]byte) bool {
		in := Decode(b[:])
		_ = in.String() // must not panic either
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBytesMatchesEncode(t *testing.T) {
	in := Instr{Op: OpAddi, Rd: 1, Ra: 2, Imm: -77}
	var buf [InstrBytes]byte
	in.Encode(buf[:])
	got := in.Bytes()
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("Bytes()[%d] = %#x, want %#x", i, got[i], buf[i])
		}
	}
}

func TestImmediateLittleEndian(t *testing.T) {
	in := Instr{Op: OpMovi, Rd: 0, Imm: 0x01020304}
	b := in.Bytes()
	if b[4] != 0x04 || b[5] != 0x03 || b[6] != 0x02 || b[7] != 0x01 {
		t.Fatalf("immediate bytes = % x, want little-endian", b[4:])
	}
}

func TestStoreSourceAliasesRd(t *testing.T) {
	var in Instr
	in.SetRc(5)
	if in.Rc() != 5 || in.Rd != 5 {
		t.Fatal("store source must live in the Rd slot")
	}
}

func TestBranchClassification(t *testing.T) {
	branches := []Op{OpJmp, OpBeq, OpBne, OpBlt, OpBge, OpBle, OpBgt, OpBltu, OpBgeu, OpBun, OpCall}
	seen := map[Op]bool{}
	for _, op := range branches {
		if !op.IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
		seen[op] = true
	}
	for op := Op(1); op < Op(NumOpcodes); op++ {
		if op.IsBranch() && !seen[op] {
			t.Errorf("%s unexpectedly classified as branch", op)
		}
	}
	if OpCallr.IsBranch() {
		t.Error("callr transfers via register, not immediate")
	}
}

func TestMemFormClassification(t *testing.T) {
	for _, op := range []Op{OpLd, OpSt, OpLdb, OpStb, OpFld, OpFst, OpFstp} {
		if !op.IsMemForm() {
			t.Errorf("%s should be mem-form", op)
		}
	}
	for _, op := range []Op{OpAdd, OpMovi, OpFldz, OpSys} {
		if op.IsMemForm() {
			t.Errorf("%s should not be mem-form", op)
		}
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpMovi, Rd: 0, Imm: 42}, "movi r0, 42"},
		{Instr{Op: OpAdd, Rd: 1, Ra: 2, Rb: 3}, "add r1, r2, r3"},
		{Instr{Op: OpLd, Rd: 4, Ra: 7, Rb: RegNone, Imm: 8}, "ld r4, [sp+8]"},
		{Instr{Op: OpSys, Imm: 3}, "sys 3"},
		{Instr{Op: OpInvalid}, "invalid(0x00)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
	// Store form shows the source register on the right.
	st := Instr{Op: OpSt, Ra: 6, Rb: RegNone, Imm: -4}
	st.SetRc(2)
	if got := st.String(); !strings.Contains(got, "fp") || !strings.Contains(got, "r2") {
		t.Errorf("store disasm = %q", got)
	}
}

func TestRegisterNames(t *testing.T) {
	if GPRName(FP) != "fp" || GPRName(SP) != "sp" || GPRName(0) != "r0" {
		t.Fatal("register naming broken")
	}
	if GPRName(99) != "r?" {
		t.Fatal("out-of-range register must name as r?")
	}
}

func TestTagConstants(t *testing.T) {
	// The x87 encodes: 00 valid, 01 zero, 10 special, 11 empty.
	if TagValid != 0 || TagZero != 1 || TagSpecial != 2 || TagEmpty != 3 {
		t.Fatal("tag encoding must follow the x87 layout")
	}
}

// TestAluiBase pins the immediate->register ALU pairing table: every
// immediate form maps to its register-register base operation, and every
// other opcode (including out-of-range values) maps to OpInvalid.
func TestAluiBase(t *testing.T) {
	want := map[Op]Op{
		OpAddi: OpAdd,
		OpMuli: OpMul,
		OpAndi: OpAnd,
		OpOri:  OpOr,
		OpXori: OpXor,
		OpShli: OpShl,
		OpShri: OpShr,
		OpSari: OpSar,
	}
	for op := Op(0); op < Op(NumOpcodes); op++ {
		base, ok := want[op]
		if !ok {
			base = OpInvalid
		}
		if got := op.AluiBase(); got != base {
			t.Errorf("%s.AluiBase() = %s, want %s", op, got, base)
		}
	}
	if got := Op(255).AluiBase(); got != OpInvalid {
		t.Errorf("Op(255).AluiBase() = %s, want invalid", got)
	}
}
