package vm

import (
	"math"
	"testing"
	"testing/quick"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// testHandler terminates on SysExit and records other syscalls.
type testHandler struct {
	calls []int32
}

func (h *testHandler) Syscall(m *Machine, num int32) *Trap {
	h.calls = append(h.calls, num)
	if num == abi.SysExit {
		return &Trap{Kind: TrapExit, PC: m.PC, Code: int32(m.Regs[0])}
	}
	return nil
}

// assemble builds a single-function image from the emit callback.
func assemble(t testing.TB, emit func(m *asm.Module, f *asm.Func)) *image.Image {
	t.Helper()
	b := asm.NewBuilder()
	m := b.Module("t", image.OwnerUser)
	f := m.Func("main")
	emit(m, f)
	f.Movi(isa.R0, 0)
	f.Sys(abi.SysExit)
	im, err := b.Link(asm.LinkConfig{HeapSize: 1 << 20, StackSize: 64 << 10})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return im
}

// run executes the image and returns the machine and final trap.
func run(t testing.TB, im *image.Image) (*Machine, *Trap) {
	t.Helper()
	m := New(im)
	m.Handler = &testHandler{}
	res := m.Run(1_000_000)
	if res.Reason != StopTrap {
		t.Fatalf("run did not stop on a trap: %+v", res)
	}
	return m, res.Trap
}

func TestALUSemanticsMatchGo(t *testing.T) {
	type binop struct {
		op isa.Op
		fn func(a, b int32) int32
	}
	ops := []binop{
		{isa.OpAdd, func(a, b int32) int32 { return a + b }},
		{isa.OpSub, func(a, b int32) int32 { return a - b }},
		{isa.OpMul, func(a, b int32) int32 { return a * b }},
		{isa.OpAnd, func(a, b int32) int32 { return a & b }},
		{isa.OpOr, func(a, b int32) int32 { return a | b }},
		{isa.OpXor, func(a, b int32) int32 { return a ^ b }},
		{isa.OpShl, func(a, b int32) int32 { return a << (uint32(b) & 31) }},
		{isa.OpShr, func(a, b int32) int32 { return int32(uint32(a) >> (uint32(b) & 31)) }},
		{isa.OpSar, func(a, b int32) int32 { return a >> (uint32(b) & 31) }},
	}
	m := New(assemble(t, func(_ *asm.Module, f *asm.Func) {}))
	f := func(a, b int32, sel uint8) bool {
		o := ops[int(sel)%len(ops)]
		got, trap := m.alu(o.op, uint32(a), uint32(b))
		return trap == nil && int32(got) == o.fn(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDivisionSemantics(t *testing.T) {
	m := New(assemble(t, func(_ *asm.Module, f *asm.Func) {}))
	if v, trap := m.alu(isa.OpDivs, uint32(0xFFFFFFF9), 2); trap != nil || int32(v) != -3 {
		t.Fatalf("-7/2 = %d, %v", int32(v), trap)
	}
	if v, trap := m.alu(isa.OpRems, uint32(0xFFFFFFF9), 2); trap != nil || int32(v) != -1 {
		t.Fatalf("-7%%2 = %d, %v", int32(v), trap)
	}
	if _, trap := m.alu(isa.OpDivs, 5, 0); trap == nil || trap.Kind != TrapFpe {
		t.Fatal("divide by zero must raise SIGFPE")
	}
	// x86 also traps on INT_MIN / -1.
	if _, trap := m.alu(isa.OpDivs, 0x80000000, 0xFFFFFFFF); trap == nil || trap.Kind != TrapFpe {
		t.Fatal("INT_MIN/-1 must raise SIGFPE")
	}
}

func TestBranchesAndFlags(t *testing.T) {
	// Compute min(a, b) via blt and check both orderings.
	build := func(a, b int32) *image.Image {
		return assemble(t, func(m *asm.Module, f *asm.Func) {
			m.BSS("out", 4)
			f.Movi(isa.R1, a)
			f.Movi(isa.R2, b)
			less := f.NewLabel()
			done := f.NewLabel()
			f.Cmp(isa.R1, isa.R2)
			f.Blt(less)
			f.StSym("out", 0, isa.R2)
			f.Jmp(done)
			f.Label(less)
			f.StSym("out", 0, isa.R1)
			f.Label(done)
		})
	}
	check := func(a, b, want int32) {
		im := build(a, b)
		m, trap := run(t, im)
		if trap.Kind != TrapExit {
			t.Fatalf("trap = %v", trap)
		}
		sym, _ := im.Lookup("out")
		v, _ := m.Load32(sym.Addr)
		if int32(v) != want {
			t.Fatalf("min(%d,%d) = %d", a, b, int32(v))
		}
	}
	check(3, 9, 3)
	check(9, 3, 3)
	check(-5, 2, -5) // signed comparison
	check(2, 2, 2)
}

func TestUnsignedBranches(t *testing.T) {
	im := assemble(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("out", 4)
		f.Movi(isa.R1, -1) // 0xFFFFFFFF: unsigned max
		f.Movi(isa.R2, 1)
		big := f.NewLabel()
		done := f.NewLabel()
		f.Cmp(isa.R1, isa.R2)
		f.Bgeu(big) // unsigned: 0xFFFFFFFF >= 1
		f.Movi(isa.R3, 0)
		f.Jmp(done)
		f.Label(big)
		f.Movi(isa.R3, 1)
		f.Label(done)
		f.StSym("out", 0, isa.R3)
	})
	m, _ := run(t, im)
	sym, _ := im.Lookup("out")
	if v, _ := m.Load32(sym.Addr); v != 1 {
		t.Fatal("unsigned comparison took the signed path")
	}
}

func TestCallRetAndFrames(t *testing.T) {
	b := asm.NewBuilder()
	m := b.Module("t", image.OwnerUser)
	m.BSS("out", 4)
	callee := m.Func("addone")
	callee.Prologue(0)
	callee.LdArg(isa.R0, 0)
	callee.Addi(isa.R0, isa.R0, 1)
	callee.Epilogue()
	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("addone", asm.Imm(41))
	f.StSym("out", 0, isa.R0)
	f.Movi(isa.R0, 0)
	f.Sys(abi.SysExit)
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mach, trap := run(t, im)
	if trap.Kind != TrapExit {
		t.Fatalf("trap = %v", trap)
	}
	sym, _ := im.Lookup("out")
	if v, _ := mach.Load32(sym.Addr); v != 42 {
		t.Fatalf("addone(41) = %d", v)
	}
}

func TestMemoryTraps(t *testing.T) {
	cases := []struct {
		name string
		emit func(m *asm.Module, f *asm.Func)
		kind TrapKind
	}{
		{"load unmapped", func(m *asm.Module, f *asm.Func) {
			f.Movi(isa.R1, 0x10)
			f.Ld(isa.R2, isa.R1, 0)
		}, TrapSegv},
		{"store to text", func(m *asm.Module, f *asm.Func) {
			f.Movi(isa.R1, int32(image.TextBase))
			f.St(isa.R1, 0, isa.R2)
		}, TrapSegv},
		{"wild jump", func(m *asm.Module, f *asm.Func) {
			f.Movi(isa.R1, 0x100)
			f.Callr(isa.R1)
		}, TrapSegv},
		{"invalid register encoding", func(m *asm.Module, f *asm.Func) {
			// Hand-craft an instruction with register byte 9.
			f.Movr(8|1, 0) // Rd = 9: invalid
		}, TrapIll},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			im := assemble(t, c.emit)
			_, trap := run(t, im)
			if trap.Kind != c.kind {
				t.Fatalf("trap = %v, want %v", trap, c.kind)
			}
		})
	}
}

func TestJumpIntoDataRaisesIll(t *testing.T) {
	// Executing zero-initialized memory decodes opcode 0 -> SIGILL, like
	// jumping into a page of zeros on real hardware.
	im := assemble(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("blob", 64)
		f.MoviSym(isa.R1, "blob", 0)
		f.Callr(isa.R1)
	})
	_, trap := run(t, im)
	if trap.Kind != TrapIll {
		t.Fatalf("trap = %v, want SIGILL", trap)
	}
}

func TestStackOverflowTraps(t *testing.T) {
	im := assemble(t, func(m *asm.Module, f *asm.Func) {
		loop := f.NewLabel()
		f.Label(loop)
		f.Push(isa.R1)
		f.Jmp(loop)
	})
	_, trap := run(t, im)
	if trap.Kind != TrapSegv {
		t.Fatalf("trap = %v, want SIGSEGV from stack exhaustion", trap)
	}
}

func TestFPArithmetic(t *testing.T) {
	im := assemble(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("out", 8)
		m.DataF64("a", 3.5)
		m.DataF64("bv", 1.25)
		f.FldSym("a", 0)  // [3.5]
		f.FldSym("bv", 0) // [1.25, 3.5]
		f.Fsubp()         // [2.25]
		f.Fldst(0)
		f.Fmulp() // [5.0625]
		f.Fsqrt() // [2.25]
		f.FstpSym("out", 0)
	})
	m, _ := run(t, im)
	sym, _ := im.Lookup("out")
	v, _ := m.LoadF64(sym.Addr)
	if v != 2.25 {
		t.Fatalf("fp pipeline produced %v", v)
	}
}

func TestFPStackDepthStaysSmall(t *testing.T) {
	// The paper observes compiler-generated x87 code keeps <= 4 live
	// stack slots; our emitters follow the same discipline.
	im := assemble(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("out", 8)
		f.FldConst(1)
		f.FldConst(2)
		f.FldConst(3)
		f.Faddp()
		f.Fmulp()
		f.FstpSym("out", 0)
	})
	m := New(im)
	m.Handler = &testHandler{}
	maxDepth := 0
	for {
		if d := m.FPDepth(); d > maxDepth {
			maxDepth = d
		}
		if tr := m.Step(); tr != nil {
			break
		}
	}
	if maxDepth == 0 || maxDepth > 4 {
		t.Fatalf("max FP stack depth = %d", maxDepth)
	}
}

func TestTagWordFaultTurnsValidIntoNaN(t *testing.T) {
	// §6.1.1: flipping a TWD bit can turn a valid number into NaN or 0.
	m := New(assemble(t, func(_ *asm.Module, f *asm.Func) {}))
	m.fpush(123.5)
	phys := m.FP.Top()
	if m.FP.Tag(phys) != isa.TagValid {
		t.Fatal("pushed value should be tagged valid")
	}
	// Flip the high bit of the slot's tag: valid(00) -> special(10).
	m.FP.SetTag(phys, isa.TagSpecial)
	if v := m.fget(0); !math.IsNaN(v) {
		t.Fatalf("special-tagged valid slot read %v, want NaN", v)
	}
	// Flip to zero(01) instead.
	m.FP.SetTag(phys, isa.TagZero)
	if v := m.fget(0); v != 0 {
		t.Fatalf("zero-tagged slot read %v, want 0", v)
	}
}

func TestSWDTopCorruption(t *testing.T) {
	m := New(assemble(t, func(_ *asm.Module, f *asm.Func) {}))
	m.fpush(1.0)
	m.fpush(2.0)
	if got := m.fget(0); got != 2.0 {
		t.Fatalf("st0 = %v", got)
	}
	// Corrupt the stack-top field (SWD bits 11-13).
	m.FP.SWD ^= 1 << 11
	if got := m.fget(0); got == 2.0 {
		t.Fatal("SWD corruption should change register addressing")
	}
}

func TestEmptySlotReadsIndefinite(t *testing.T) {
	m := New(assemble(t, func(_ *asm.Module, f *asm.Func) {}))
	if v := m.fget(0); !math.IsNaN(v) {
		t.Fatalf("empty FP stack read %v, want indefinite NaN", v)
	}
}

func TestFxamDetectsSpecials(t *testing.T) {
	im := assemble(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("out", 4)
		m.DataF64("nanval", math.NaN())
		f.FldSym("nanval", 0)
		f.Fxam()
		bad := f.NewLabel()
		done := f.NewLabel()
		f.Beq(bad)
		f.Movi(isa.R1, 0)
		f.Jmp(done)
		f.Label(bad)
		f.Movi(isa.R1, 1)
		f.Label(done)
		f.StSym("out", 0, isa.R1)
	})
	m, _ := run(t, im)
	sym, _ := im.Lookup("out")
	if v, _ := m.Load32(sym.Addr); v != 1 {
		t.Fatal("FXAM failed to flag NaN")
	}
}

func TestFistEdgeCases(t *testing.T) {
	m := New(assemble(t, func(_ *asm.Module, f *asm.Func) {}))
	cases := []struct {
		in   float64
		want uint32
	}{
		{3.9, 3},
		{-3.9, uint32(0xFFFFFFFD)}, // -3
		{math.NaN(), 0x80000000},
		{1e300, 0x80000000},
		{-1e300, 0x80000000},
	}
	for _, c := range cases {
		m.fpush(c.in)
		var in isa.Instr
		in.Op = isa.OpFist
		in.Rd = 1
		// Execute via the machine to exercise the real path.
		buf := in.Bytes()
		m.RawWrite(image.TextBase, buf)
		m.PC = image.TextBase
		if tr := m.Step(); tr != nil {
			t.Fatalf("fist(%v) trapped: %v", c.in, tr)
		}
		if m.Regs[1] != c.want {
			t.Fatalf("fist(%v) = %#x, want %#x", c.in, m.Regs[1], c.want)
		}
	}
}

func TestLoadStoreF64RoundTrip(t *testing.T) {
	m := New(assemble(t, func(mod *asm.Module, f *asm.Func) {
		mod.BSS("b", 64)
	}))
	f := func(v float64, off uint8) bool {
		addr := m.Image.BSSBase + uint32(off%56)
		if tr := m.StoreF64(addr, v); tr != nil {
			return false
		}
		got, tr := m.LoadF64(addr)
		if tr != nil {
			return false
		}
		return got == v || (math.IsNaN(got) && math.IsNaN(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRawReadWriteIgnorePermissions(t *testing.T) {
	m := New(assemble(t, func(_ *asm.Module, f *asm.Func) { f.Nop() }))
	// The injector can write text even though the guest cannot.
	if !m.RawWrite(image.TextBase, []byte{0xFF}) {
		t.Fatal("RawWrite to text failed")
	}
	b, ok := m.RawRead(image.TextBase, 1)
	if !ok || b[0] != 0xFF {
		t.Fatal("RawRead did not observe the write")
	}
	// Unmapped addresses are reported, not panicked on.
	if _, ok := m.RawRead(0x10, 4); ok {
		t.Fatal("RawRead of unmapped memory must fail")
	}
	if m.RawWrite(0x10, []byte{1}) {
		t.Fatal("RawWrite to unmapped memory must fail")
	}
}

func TestSegmentRange(t *testing.T) {
	m := New(assemble(t, func(mod *asm.Module, f *asm.Func) {
		mod.DataI32("d", 1, 2, 3)
		mod.BSS("z", 32)
	}))
	for _, name := range []string{"text", "data", "bss", "heap", "stack"} {
		lo, hi, ok := m.SegmentRange(name)
		if !ok || hi <= lo {
			t.Errorf("segment %s: [%#x, %#x) ok=%v", name, lo, hi, ok)
		}
	}
	if _, _, ok := m.SegmentRange("nope"); ok {
		t.Error("unknown segment name must fail")
	}
}

func TestTriggerFiresExactlyOnce(t *testing.T) {
	im := assemble(t, func(m *asm.Module, f *asm.Func) {
		f.Movi(isa.R1, 0)
		loop := f.NewLabel()
		f.Label(loop)
		f.Addi(isa.R1, isa.R1, 1)
		f.Cmpi(isa.R1, 1000)
		f.Blt(loop)
	})
	m := New(im)
	m.Handler = &testHandler{}
	fired := 0
	var atInstr uint64
	m.TriggerAt = 500
	m.TriggerFn = func(m *Machine) *Trap {
		fired++
		atInstr = m.Instrs
		return nil
	}
	m.Run(1_000_000)
	if fired != 1 {
		t.Fatalf("trigger fired %d times", fired)
	}
	if atInstr != 500 {
		t.Fatalf("trigger fired at instruction %d, want 500", atInstr)
	}
}

// TestTriggerHalts: a trigger that returns a trap ends Run on the spot,
// with that trap and no further instruction retired or fetched, on the
// superblock tier and on Step alike — here at instruction 500, inside a
// three-instruction loop body.
func TestTriggerHalts(t *testing.T) {
	im := assemble(t, func(m *asm.Module, f *asm.Func) {
		f.Movi(isa.R1, 0)
		loop := f.NewLabel()
		f.Label(loop)
		f.Addi(isa.R1, isa.R1, 1)
		f.Cmpi(isa.R1, 1000)
		f.Blt(loop)
	})
	for _, disable := range []bool{false, true} {
		m := New(im)
		if disable {
			m.DisableSuperblocks()
		}
		m.Handler = &testHandler{}
		rec := &pcRecorder{}
		m.Tracer = rec
		halt := &Trap{Kind: TrapKilled, Msg: "halted by trigger"}
		m.TriggerAt = 500
		m.TriggerFn = func(*Machine) *Trap { return halt }
		out := m.Run(1_000_000)
		if out.Reason != StopTrap || out.Trap != halt || m.Instrs != 500 || len(rec.pcs) != 500 {
			t.Errorf("interpreter only %v: %+v after %d instructions, %d fetched; want the trigger's trap at 500",
				disable, out, m.Instrs, len(rec.pcs))
		}
	}
}

func TestInstructionBudget(t *testing.T) {
	im := assemble(t, func(m *asm.Module, f *asm.Func) {
		loop := f.NewLabel()
		f.Label(loop)
		f.Jmp(loop)
	})
	m := New(im)
	m.Handler = &testHandler{}
	res := m.Run(10_000)
	if res.Reason != StopBudget {
		t.Fatalf("infinite loop not stopped by budget: %+v", res)
	}
	if m.Instrs < 10_000 {
		t.Fatalf("stopped after only %d instructions", m.Instrs)
	}
}

func TestMinSPTracking(t *testing.T) {
	im := assemble(t, func(m *asm.Module, f *asm.Func) {
		f.Push(isa.R1)
		f.Push(isa.R2)
		f.Pop(isa.R2)
		f.Pop(isa.R1)
	})
	m, _ := run(t, im)
	if m.MinSP >= image.StackTop {
		t.Fatal("MinSP never moved")
	}
	if image.StackTop-m.MinSP < 8 {
		t.Fatalf("MinSP only %d below top", image.StackTop-m.MinSP)
	}
}
