package guest

import (
	"strings"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/cluster"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/vm"
)

// buildAndRun links libc+libmpi with a main emitted by body and runs it
// on `ranks` ranks.
func buildAndRun(t *testing.T, ranks int, body func(m *asm.Module, f *asm.Func)) *cluster.Result {
	t.Helper()
	b := asm.NewBuilder()
	AddLibc(b)
	AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	f := m.Func("main")
	f.Prologue(0)
	body(m, f)
	f.Movi(isa.R0, 0)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return cluster.Run(cluster.Job{Image: im, Size: ranks, Budget: 20_000_000})
}

func TestMemcpyAndMemset(t *testing.T) {
	res := buildAndRun(t, 1, func(m *asm.Module, f *asm.Func) {
		m.DataString("src", "hello")
		m.BSS("dst", 8)
		f.CallArgs("memset", asm.Sym("dst"), asm.Imm('x'), asm.Imm(8))
		f.CallArgs("memcpy", asm.Sym("dst"), asm.Sym("src"), asm.Imm(5))
		f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("dst"), asm.Imm(8))
	})
	if got := string(res.Stdout[0]); got != "helloxxx" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestMemcpywWordCopy(t *testing.T) {
	res := buildAndRun(t, 1, func(m *asm.Module, f *asm.Func) {
		m.DataI32("src", 0x64636261, 0x68676665) // "abcdefgh"
		m.BSS("dst", 8)
		f.CallArgs("memcpyw", asm.Sym("dst"), asm.Sym("src"), asm.Imm(2))
		f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("dst"), asm.Imm(8))
	})
	if got := string(res.Stdout[0]); got != "abcdefgh" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestMallocFreeFromGuest(t *testing.T) {
	res := buildAndRun(t, 1, func(m *asm.Module, f *asm.Func) {
		m.BSS("p", 4)
		f.CallArgs("malloc", asm.Imm(128))
		f.StSym("p", 0, isa.R0)
		// Store and reload through the allocation.
		f.LdSym(isa.R1, "p", 0)
		f.Movi(isa.R2, 77)
		f.St(isa.R1, 0, isa.R2)
		f.Ld(isa.R3, isa.R1, 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R3))
		f.LdSym(isa.R1, "p", 0)
		f.CallArgs("free", asm.Reg(isa.R1))
	})
	if got := string(res.Stdout[0]); got != "77" {
		t.Fatalf("stdout = %q", got)
	}
	if res.Ranks[0].Trap.Kind != vm.TrapExit {
		t.Fatalf("trap = %v", res.Ranks[0].Trap)
	}
}

func TestPrintF64Precision(t *testing.T) {
	res := buildAndRun(t, 1, func(m *asm.Module, f *asm.Func) {
		m.DataF64("v", 3.14159265)
		f.CallArgs("print_f64", asm.Imm(abi.FdStdout), asm.Sym("v"), asm.Imm(3))
	})
	if got := string(res.Stdout[0]); got != "3.142" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestFchecknanPassesFiniteValues(t *testing.T) {
	res := buildAndRun(t, 1, func(m *asm.Module, f *asm.Func) {
		m.DataF64("v", 42.0)
		m.DataString("msg", "nan!\n")
		f.CallArgs("fchecknan", asm.Sym("v"), asm.Sym("msg"), asm.Imm(5))
		f.CallArgs("print_f64", asm.Imm(abi.FdStdout), asm.Sym("v"), asm.Imm(1))
	})
	if got := string(res.Stdout[0]); got != "42.0" {
		t.Fatalf("stdout = %q (value must survive the check)", got)
	}
}

func TestFchecknanAbortsOnNaN(t *testing.T) {
	res := buildAndRun(t, 1, func(m *asm.Module, f *asm.Func) {
		// Manufacture a NaN: 0/0.
		m.BSS("v", 8)
		m.DataString("msg", "nan detected\n")
		f.Fldz()
		f.Fldz()
		f.Fdivp()
		f.FstpSym("v", 0)
		f.CallArgs("fchecknan", asm.Sym("v"), asm.Sym("msg"), asm.Imm(13))
	})
	tr := res.Ranks[0].Trap
	if tr == nil || tr.Kind != vm.TrapAbort {
		t.Fatalf("trap = %v, want abort", tr)
	}
	if !strings.Contains(string(res.Stderr[0]), "nan detected") {
		t.Fatalf("stderr = %q", res.Stderr[0])
	}
}

func TestMPIStubsMarshalAllSevenArguments(t *testing.T) {
	// MPI_Recv has 7 arguments; exercise the stack-spill path of the stub
	// by checking the status words a matched receive writes back.
	res := buildAndRun(t, 2, func(m *asm.Module, f *asm.Func) {
		m.BSS("buf", 64)
		m.BSS("status", 12)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		odd := f.NewLabel()
		done := f.NewLabel()
		f.Cmpi(isa.R0, 0)
		f.Bne(odd)
		// rank 0 sends 3 ints with tag 9.
		f.CallArgs("MPI_Send", asm.Sym("buf"), asm.Imm(3), asm.Imm(abi.DTInt32),
			asm.Imm(1), asm.Imm(9), asm.Imm(abi.CommWorld))
		f.Jmp(done)
		f.Label(odd)
		f.CallArgs("MPI_Recv", asm.Sym("buf"), asm.Imm(8), asm.Imm(abi.DTInt32),
			asm.Imm(abi.AnySource), asm.Imm(abi.AnyTag), asm.Imm(abi.CommWorld),
			asm.Sym("status"))
		// print status.source, status.tag, status.count
		f.LdSym(isa.R1, "status", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.LdSym(isa.R1, "status", 4)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.LdSym(isa.R1, "status", 8)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.Label(done)
		f.CallArgs("MPI_Finalize")
	})
	if res.HangDetected {
		t.Fatalf("hang: %s", res.HangCause)
	}
	if got := string(res.Stdout[1]); got != "093" {
		t.Fatalf("status = %q, want source=0 tag=9 count=3", got)
	}
}

// argRecorder is a host that services each MPI call by recording the
// arguments abi.MPICalls says its stub passes, read through vm.Machine.Arg.
type argRecorder map[int32][]uint32

func (h argRecorder) Syscall(m *vm.Machine, num int32) *vm.Trap {
	if num == abi.SysExit {
		return &vm.Trap{Kind: vm.TrapExit, PC: m.PC, Code: int32(m.Regs[0])}
	}
	var args []uint32
	for i := range abi.MPIArgs(num) {
		v, t := m.Arg(i)
		if t != nil {
			return t
		}
		args = append(args, v)
	}
	h[num] = args
	return nil
}

// TestMPIStubsMarshalEveryCall: every MPI stub hands the host the
// arguments its caller passed, in order and as many as abi.MPICalls says.
func TestMPIStubsMarshalEveryCall(t *testing.T) {
	want := func(c abi.MPICall, i int) uint32 { return uint32(c.Num)<<8 | uint32(i+1) }
	b := asm.NewBuilder()
	AddLibc(b)
	AddLibMPI(b)
	f := b.Module("app", image.OwnerUser).Func("main")
	f.Prologue(0)
	for _, c := range abi.MPICalls {
		args := make([]asm.Arg, c.Args)
		for i := range args {
			args[i] = asm.Imm(int32(want(c, i)))
		}
		f.CallArgs(c.Name, args...)
	}
	f.Movi(isa.R0, 0)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := argRecorder{}
	m := vm.New(im)
	m.Handler = got
	if out := m.Run(1_000_000); out.Trap == nil || out.Trap.Kind != vm.TrapExit || out.Trap.Code != 0 {
		t.Fatalf("guest ended with %+v", out)
	}
	for _, c := range abi.MPICalls {
		args, ok := got[c.Num]
		if !ok {
			t.Errorf("%s never issued syscall %d", c.Name, c.Num)
			continue
		}
		for i, v := range args {
			if v != want(c, i) {
				t.Errorf("%s argument %d = %#x, want %#x", c.Name, i, v, want(c, i))
			}
		}
	}
}

func TestMPIModuleOwnsItsSymbols(t *testing.T) {
	b := asm.NewBuilder()
	AddLibc(b)
	AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	f := m.Func("main")
	f.Ret()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mpiFuncs := 0
	for _, s := range im.Symbols {
		isStub := strings.HasPrefix(s.Name, "MPI_") || strings.HasPrefix(s.Name, "__mpi")
		if isStub {
			if s.Owner != image.OwnerMPI {
				t.Errorf("symbol %q should be MPI-owned", s.Name)
			}
			if s.Kind == image.SymFunc {
				mpiFuncs++
			}
		} else if s.Owner == image.OwnerMPI {
			t.Errorf("unexpected MPI-owned symbol %q", s.Name)
		}
	}
	if mpiFuncs < 16 {
		t.Fatalf("only %d MPI stubs linked", mpiFuncs)
	}
}

func TestWtime(t *testing.T) {
	res := buildAndRun(t, 1, func(m *asm.Module, f *asm.Func) {
		m.BSS("tv", 8)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Wtime", asm.Sym("tv"))
		f.CallArgs("MPI_Finalize")
		f.CallArgs("print_f64", asm.Imm(abi.FdStdout), asm.Sym("tv"), asm.Imm(9))
	})
	out := string(res.Stdout[0])
	if !strings.HasPrefix(out, "0.0000") {
		t.Fatalf("wtime = %q, want small virtual seconds", out)
	}
	if out == "0.000000000" {
		t.Fatal("wtime should have advanced past zero")
	}
}
