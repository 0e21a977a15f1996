package cluster

import (
	"strings"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/vm"
)

// buildProgram links libc+libmpi around the emitted main body.
func buildProgram(t testing.TB, body func(m *asm.Module, f *asm.Func)) *image.Image {
	t.Helper()
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
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
	return im
}

func mustExitClean(t *testing.T, res *Result) {
	t.Helper()
	if res.HangDetected {
		t.Fatalf("hang: %s", res.HangCause)
	}
	for r, rr := range res.Ranks {
		if rr.Trap == nil || rr.Trap.Kind != vm.TrapExit || rr.Trap.Code != 0 {
			t.Fatalf("rank %d: %v (stderr %q)", r, rr.Trap, res.Stderr[r])
		}
	}
}

// TestIsendIrecvWaitall: both ranks post Irecv, Isend large (rendezvous)
// payloads to each other, then Waitall — the pattern that deadlocks with
// blocking sends but must complete with nonblocking progress.
func TestIsendIrecvWaitall(t *testing.T) {
	const words = 2048 // 8 KiB: forces rendezvous both ways
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("sb", words*4)
		m.BSS("rb", words*4)
		m.BSS("reqs", 8)   // two request handles
		m.BSS("stats", 24) // two status blocks
		m.BSS("myrank", 4)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		f.StSym("myrank", 0, isa.R0)
		// sb[0] = myrank + 400
		f.Addi(isa.R1, isa.R0, 400)
		f.StSym("sb", 0, isa.R1)
		// peer = 1 - myrank
		f.LdSym(isa.R0, "myrank", 0)
		f.Movi(isa.R2, 1)
		f.Sub(isa.R2, isa.R2, isa.R0)
		// Post the receive first, then the send: nonblocking progress
		// must complete both even though each rank's send needs the
		// peer's posted receive (rendezvous).
		f.CallArgs("MPI_Irecv", asm.Sym("rb"), asm.Imm(words), asm.Imm(abi.DTInt32),
			asm.Reg(isa.R2), asm.Imm(5), asm.Imm(abi.CommWorld), asm.Sym("reqs"))
		f.LdSym(isa.R0, "myrank", 0)
		f.Movi(isa.R2, 1)
		f.Sub(isa.R2, isa.R2, isa.R0)
		f.CallArgs("MPI_Isend", asm.Sym("sb"), asm.Imm(words), asm.Imm(abi.DTInt32),
			asm.Reg(isa.R2), asm.Imm(5), asm.Imm(abi.CommWorld), asm.SymOff("reqs", 4))
		f.CallArgs("MPI_Waitall", asm.Imm(2), asm.Sym("reqs"), asm.Sym("stats"))
		// print rb[0]
		f.LdSym(isa.R1, "rb", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 2, Budget: 50_000_000})
	mustExitClean(t, res)
	if got := string(res.Stdout[0]); got != "401" {
		t.Fatalf("rank 0 received %q, want 401", got)
	}
	if got := string(res.Stdout[1]); got != "400" {
		t.Fatalf("rank 1 received %q, want 400", got)
	}
}

// TestSendrecvRing: every rank simultaneously Sendrecvs with its ring
// neighbours — no parity ordering needed.
func TestSendrecvRing(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("sb", 4)
		m.BSS("rb", 4)
		m.BSS("status", 12)
		m.BSS("myrank", 4)
		m.BSS("nproc", 4)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		f.StSym("myrank", 0, isa.R0)
		f.CallArgs("MPI_Comm_size", asm.Imm(abi.CommWorld))
		f.StSym("nproc", 0, isa.R0)
		f.LdSym(isa.R1, "myrank", 0)
		f.Muli(isa.R1, isa.R1, 100)
		f.StSym("sb", 0, isa.R1)
		// dest = (rank+1)%size, source = (rank-1+size)%size
		f.LdSym(isa.R0, "myrank", 0)
		f.LdSym(isa.R1, "nproc", 0)
		f.Addi(isa.R2, isa.R0, 1)
		f.Rems(isa.R2, isa.R2, isa.R1)
		f.Add(isa.R3, isa.R0, isa.R1)
		f.Addi(isa.R3, isa.R3, -1)
		f.Rems(isa.R3, isa.R3, isa.R1)
		f.CallArgs("MPI_Sendrecv",
			asm.Sym("sb"), asm.Imm(1), asm.Imm(abi.DTInt32), asm.Reg(isa.R2), asm.Imm(3),
			asm.Sym("rb"), asm.Imm(1), asm.Reg(isa.R3), asm.Imm(3),
			asm.Imm(abi.CommWorld), asm.Sym("status"))
		// rank 0: print rb (should be from rank size-1) and status.source
		f.LdSym(isa.R0, "myrank", 0)
		f.Cmpi(isa.R0, 0)
		skip := f.NewLabel()
		f.Bne(skip)
		f.LdSym(isa.R1, "rb", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.LdSym(isa.R1, "status", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.Label(skip)
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 5, Budget: 20_000_000})
	mustExitClean(t, res)
	if got := string(res.Stdout[0]); got != "4004" {
		t.Fatalf("rank 0 printed %q, want 4004 (value 400, source 4)", got)
	}
}

// TestCommSplit: split even/odd ranks into sub-communicators, allreduce
// within each, and verify the sums stay disjoint.
func TestCommSplit(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("newcomm", 4)
		m.BSS("val", 4)
		m.BSS("sum", 4)
		m.BSS("myrank", 4)
		m.BSS("subrank", 4)
		m.BSS("subsize", 4)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		f.StSym("myrank", 0, isa.R0)
		f.StSym("val", 0, isa.R0)
		// color = rank % 2, key = -rank (reverses the order inside the
		// new communicator; keys may be any integers).
		f.Andi(isa.R1, isa.R0, 1)
		f.Neg(isa.R2, isa.R0)
		f.CallArgs("MPI_Comm_split", asm.Imm(abi.CommWorld), asm.Reg(isa.R1),
			asm.Reg(isa.R2), asm.Sym("newcomm"))
		f.LdSym(isa.R3, "newcomm", 0)
		f.CallArgs("MPI_Comm_rank", asm.Reg(isa.R3))
		f.StSym("subrank", 0, isa.R0)
		f.LdSym(isa.R3, "newcomm", 0)
		f.CallArgs("MPI_Comm_size", asm.Reg(isa.R3))
		f.StSym("subsize", 0, isa.R0)
		f.LdSym(isa.R3, "newcomm", 0)
		f.CallArgs("MPI_Allreduce", asm.Sym("val"), asm.Sym("sum"),
			asm.Imm(1), asm.Imm(abi.DTInt32), asm.Imm(abi.OpSum), asm.Reg(isa.R3))
		// world rank 0 and 1 print: sum, subrank, subsize
		f.LdSym(isa.R0, "myrank", 0)
		f.Cmpi(isa.R0, 2)
		skip := f.NewLabel()
		f.Bge(skip)
		f.LdSym(isa.R1, "sum", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.LdSym(isa.R1, "subrank", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.LdSym(isa.R1, "subsize", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.Label(skip)
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 6, Budget: 50_000_000})
	mustExitClean(t, res)
	// Evens {0,2,4}: sum 6.  Key = -rank reverses: world rank 0 has the
	// highest key, so subrank 2 of 3.
	if got := string(res.Stdout[0]); got != "623" {
		t.Fatalf("rank 0 printed %q, want 623", got)
	}
	// Odds {1,3,5}: sum 9; world rank 1 -> subrank 2 of 3.
	if got := string(res.Stdout[1]); got != "923" {
		t.Fatalf("rank 1 printed %q, want 923", got)
	}
}

// TestCommDup: a duplicated communicator works for collectives and is
// distinct from its parent.
func TestCommDup(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("newcomm", 4)
		m.BSS("val", 4)
		m.BSS("sum", 4)
		m.BSS("myrank", 4)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		f.StSym("myrank", 0, isa.R0)
		f.Movi(isa.R1, 1)
		f.StSym("val", 0, isa.R1)
		f.CallArgs("MPI_Comm_dup", asm.Imm(abi.CommWorld), asm.Sym("newcomm"))
		f.LdSym(isa.R3, "newcomm", 0)
		f.CallArgs("MPI_Allreduce", asm.Sym("val"), asm.Sym("sum"),
			asm.Imm(1), asm.Imm(abi.DTInt32), asm.Imm(abi.OpSum), asm.Reg(isa.R3))
		f.LdSym(isa.R0, "myrank", 0)
		f.Cmpi(isa.R0, 0)
		skip := f.NewLabel()
		f.Bne(skip)
		f.LdSym(isa.R1, "sum", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.LdSym(isa.R1, "newcomm", 0)
		f.Cmpi(isa.R1, abi.CommWorld)
		same := f.NewLabel()
		f.Beq(same)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Imm(1))
		f.Label(same)
		f.Label(skip)
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 4, Budget: 20_000_000})
	mustExitClean(t, res)
	if got := string(res.Stdout[0]); got != "41" {
		t.Fatalf("rank 0 printed %q, want 41 (sum=4, handle differs)", got)
	}
}

// TestWaitOnBadHandle: waiting on a garbage request handle is an
// argument-check failure (ERR_ARG), the MPI-Detected path.
func TestWaitOnBadHandle(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("bogus", 4)
		f.CallArgs("MPI_Init")
		f.Movi(isa.R1, 999)
		f.StSym("bogus", 0, isa.R1)
		f.CallArgs("MPI_Wait", asm.Sym("bogus"), asm.Imm(0))
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 1, Budget: 10_000_000})
	tr := res.Ranks[0].Trap
	if tr == nil || tr.Kind != vm.TrapMPIFatal {
		t.Fatalf("trap = %v", tr)
	}
	if !strings.Contains(tr.Msg, "MPI_ERR_ARG") {
		t.Fatalf("msg = %q", tr.Msg)
	}
}
