package isa

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzDecode holds the text-segment boundary: a flipped text bit can put
// any 8 bytes in front of the decoder, the disassembler and the
// forensics renderers.  Every input must decode, render without a panic
// with and without a symbol resolver, and re-encode to the same bytes.
func FuzzDecode(f *testing.F) {
	for _, in := range []Instr{
		{Op: OpAddi, Rd: R1, Ra: R2, Imm: -77},
		{Op: OpLd, Rd: R0, Ra: RegNone, Rb: RegNone, Imm: 0x08049000},
		{Op: OpSt, Rd: R3, Ra: R1, Rb: R2, Imm: 16},
		{Op: OpMovi, Rd: R4, Imm: 0x08048040},
		{Op: OpSys, Imm: 4},
		{Op: Op(NumOpcodes), Rd: 0xff, Ra: 0xfe, Rb: RegNone, Imm: -1},
	} {
		f.Add(in.Bytes())
	}
	resolve := func(addr uint32) string {
		if addr%3 == 0 {
			return fmt.Sprintf("sym+0x%x", addr%0x100)
		}
		return ""
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [InstrBytes]byte
		copy(b[:], data)
		in := Decode(b[:])
		s := in.String()
		if d := in.Disasm(resolve); !strings.HasPrefix(d, s) {
			t.Fatalf("Disasm %q does not extend String %q", d, s)
		}
		if d := in.Disasm(nil); d != s {
			t.Fatalf("Disasm(nil) %q != String %q", d, s)
		}
		enc := in.Bytes()
		if !bytes.Equal(enc, b[:]) {
			t.Fatalf("% x decodes to %v, which encodes to % x", b, in, enc)
		}
		if again := Decode(enc); again != in {
			t.Fatalf("% x: decode %+v, re-decode %+v", b, in, again)
		}
	})
}
