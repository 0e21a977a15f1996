package vm

import (
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// benchImage links the mixed integer/FP loop used by the interpreter
// micro-benchmarks: eight instructions per iteration touching the ALU,
// the FP stack and BSS memory, with an effectively endless trip count so
// the instruction budget decides when to stop.
func benchImage(b *testing.B) *image.Image {
	b.Helper()
	ab := asm.NewBuilder()
	m := ab.Module("bench", image.OwnerUser)
	m.BSS("scratch", 16)
	f := m.Func("main")
	f.Movi(isa.R1, 0)
	f.Movi(isa.R2, 1<<30)
	loop := f.NewLabel()
	f.Label(loop)
	f.Addi(isa.R1, isa.R1, 1)
	f.Xori(isa.R3, isa.R1, 0x55)
	f.FldConst(1.5)
	f.FldConst(2.5)
	f.Fmulp()
	f.FstpSym("scratch", 0)
	f.Cmp(isa.R1, isa.R2)
	f.Blt(loop)
	f.Movi(isa.R0, 0)
	f.Sys(abi.SysExit)
	im, err := ab.Link(asm.LinkConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return im
}

// BenchmarkStep measures per-retired-instruction cost of the
// per-instruction interpreter (superblocks disabled): one benchmark op is
// one instruction.  This is the floor the bail/dirty-slot/unaligned-PC
// fallback paths run at.
func BenchmarkStep(b *testing.B) {
	im := benchImage(b)
	m := New(im)
	m.DisableSuperblocks()
	m.Handler = &testHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	out := m.Run(uint64(b.N))
	if out.Reason != StopBudget {
		b.Fatalf("unexpected stop: %+v", out)
	}
}

// BenchmarkSuperblockRun is BenchmarkStep through the compiled superblock
// tier (the default execution mode): one benchmark op is one retired
// instruction.  A campaign's wall-clock is almost entirely
// N_experiments x golden_instrs x this number.
func BenchmarkSuperblockRun(b *testing.B) {
	im := benchImage(b)
	m := New(im)
	m.Handler = &testHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	out := m.Run(uint64(b.N))
	if out.Reason != StopBudget {
		b.Fatalf("unexpected stop: %+v", out)
	}
}

// BenchmarkMachineNew measures per-experiment setup cost: every rank of
// every injection run starts with a vm.New of the same image.
func BenchmarkMachineNew(b *testing.B) {
	im := benchImage(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink *Machine
	for i := 0; i < b.N; i++ {
		sink = New(im)
	}
	_ = sink
}

// BenchmarkRestoreFirstWrite measures what every restored rank of every
// checkpointed experiment pays before it does anything useful: a machine
// from a snapshot holding 256 KiB of heap, one push and one heap store.
// With page tables that is two page copies; the prefix-backed segments
// zeroed the whole stack and copied the whole heap.
func BenchmarkRestoreFirstWrite(b *testing.B) {
	im := benchImage(b)
	g := New(im)
	if t := g.WriteBytes(im.HeapBase, make([]byte, 256<<10)); t != nil {
		b.Fatal(t)
	}
	if t := g.push(1); t != nil {
		b.Fatal(t)
	}
	snap := g.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := snap.NewMachine()
		if t := m.push(uint32(i)); t != nil {
			b.Fatal(t)
		}
		if t := m.Store32(im.HeapBase+128<<10, uint32(i)); t != nil {
			b.Fatal(t)
		}
	}
}
