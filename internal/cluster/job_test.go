package cluster

import (
	"bytes"
	"strings"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/vm"
)

// buildHello links a single-rank program that prints a string and exits.
func buildHello(t *testing.T) *image.Image {
	t.Helper()
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	m.DataString("msg", "hello, world\n")
	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("msg"), asm.Imm(13))
	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return im
}

func TestHelloSingleRank(t *testing.T) {
	im := buildHello(t)
	res := Run(Job{Image: im, Size: 1, Budget: 1_000_000})
	if res.HangDetected {
		t.Fatalf("unexpected hang: %s", res.HangCause)
	}
	rr := res.Ranks[0]
	if rr.Trap == nil || rr.Trap.Kind != 4 /* TrapExit */ {
		t.Fatalf("rank 0 trap = %+v", rr.Trap)
	}
	if got := string(res.Stdout[0]); got != "hello, world\n" {
		t.Fatalf("stdout = %q", got)
	}
}

// buildRing links a program in which every rank sends its rank number
// around a ring, reduces the sum, and rank 0 prints it.  It exercises
// p2p (eager), allreduce, barrier, malloc and console output.
func buildRing(t *testing.T, payloadWords int32) *image.Image {
	t.Helper()
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	m.DataString("sumis", "ring sum ")
	m.DataString("nl", "\n")
	m.BSS("sendbuf", uint32(4*payloadWords))
	m.BSS("recvbuf", uint32(4*payloadWords))
	m.BSS("myrank", 4)
	m.BSS("nproc", 4)
	m.BSS("sum", 4)

	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	f.StSym("myrank", 0, isa.R0)
	f.CallArgs("MPI_Comm_size", asm.Imm(abi.CommWorld))
	f.StSym("nproc", 0, isa.R0)

	// Fill sendbuf[i] = rank for all payload words.
	f.LdSym(isa.R1, "myrank", 0)
	f.Movi(isa.R2, 0)
	fill, fillDone := f.NewLabel(), f.NewLabel()
	f.Label(fill)
	f.Cmpi(isa.R2, payloadWords*4)
	f.Bge(fillDone)
	f.MoviSym(isa.R3, "sendbuf", 0)
	f.Stx(isa.R3, isa.R2, 0, isa.R1)
	f.Addi(isa.R2, isa.R2, 4)
	f.Jmp(fill)
	f.Label(fillDone)

	// Even ranks send then recv; odd ranks recv then send (deadlock-safe).
	// dest = (rank+1)%size, src = (rank-1+size)%size
	f.LdSym(isa.R0, "myrank", 0)
	f.LdSym(isa.R1, "nproc", 0)
	f.Addi(isa.R2, isa.R0, 1)
	f.Rems(isa.R2, isa.R2, isa.R1) // dest
	f.Add(isa.R3, isa.R0, isa.R1)
	f.Addi(isa.R3, isa.R3, -1)
	f.Rems(isa.R3, isa.R3, isa.R1) // src
	f.StSym("sum", 0, isa.R2)      // stash dest in sum temporarily
	f.Push(isa.R3)                 // keep src on stack

	f.Andi(isa.R4, isa.R0, 1)
	odd, after := f.NewLabel(), f.NewLabel()
	f.Cmpi(isa.R4, 0)
	f.Bne(odd)
	// even: send then recv
	f.LdSym(isa.R2, "sum", 0)
	f.CallArgs("MPI_Send", asm.Sym("sendbuf"), asm.Imm(payloadWords),
		asm.Imm(abi.DTInt32), asm.Reg(isa.R2), asm.Imm(7), asm.Imm(abi.CommWorld))
	f.Ld(isa.R3, isa.SP, 0)
	f.CallArgs("MPI_Recv", asm.Sym("recvbuf"), asm.Imm(payloadWords),
		asm.Imm(abi.DTInt32), asm.Reg(isa.R3), asm.Imm(7), asm.Imm(abi.CommWorld), asm.Imm(0))
	f.Jmp(after)
	f.Label(odd)
	f.Ld(isa.R3, isa.SP, 0)
	f.CallArgs("MPI_Recv", asm.Sym("recvbuf"), asm.Imm(payloadWords),
		asm.Imm(abi.DTInt32), asm.Reg(isa.R3), asm.Imm(7), asm.Imm(abi.CommWorld), asm.Imm(0))
	f.LdSym(isa.R2, "sum", 0)
	f.CallArgs("MPI_Send", asm.Sym("sendbuf"), asm.Imm(payloadWords),
		asm.Imm(abi.DTInt32), asm.Reg(isa.R2), asm.Imm(7), asm.Imm(abi.CommWorld))
	f.Label(after)
	f.Pop(isa.R3)

	// recvbuf[0] now holds src's rank; allreduce-sum over all ranks gives
	// size*(size-1)/2.
	f.CallArgs("MPI_Allreduce", asm.Sym("recvbuf"), asm.Sym("sum"),
		asm.Imm(1), asm.Imm(abi.DTInt32), asm.Imm(abi.OpSum), asm.Imm(abi.CommWorld))
	f.CallArgs("MPI_Barrier", asm.Imm(abi.CommWorld))

	// Rank 0 prints the sum.
	f.LdSym(isa.R0, "myrank", 0)
	f.Cmpi(isa.R0, 0)
	skip := f.NewLabel()
	f.Bne(skip)
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("sumis"), asm.Imm(9))
	f.LdSym(isa.R1, "sum", 0)
	f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("nl"), asm.Imm(1))
	f.Label(skip)

	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()

	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return im
}

func TestRingEager(t *testing.T) {
	im := buildRing(t, 8) // 32-byte payload: eager path
	res := Run(Job{Image: im, Size: 6, Budget: 10_000_000})
	if res.HangDetected {
		t.Fatalf("unexpected hang: %s", res.HangCause)
	}
	for r, rr := range res.Ranks {
		if rr.Trap == nil || rr.Trap.Kind.String() != "exit" {
			t.Fatalf("rank %d trap = %v", r, rr.Trap)
		}
	}
	want := "ring sum 15\n" // 0+1+...+5
	if got := string(res.Stdout[0]); got != want {
		t.Fatalf("stdout = %q, want %q", got, want)
	}
}

func TestRingRendezvous(t *testing.T) {
	im := buildRing(t, 1024) // 4 KiB payload: rendezvous path
	res := Run(Job{Image: im, Size: 4, Budget: 50_000_000})
	if res.HangDetected {
		t.Fatalf("unexpected hang: %s", res.HangCause)
	}
	want := "ring sum 6\n"
	if got := string(res.Stdout[0]); got != want {
		t.Fatalf("stdout = %q, want %q", got, want)
	}
	// Rendezvous generates control traffic: RTS+CTS per large message.
	var ctl uint64
	for _, rr := range res.Ranks {
		ctl += rr.Stats.ControlMsgs
	}
	if ctl == 0 {
		t.Fatal("expected rendezvous control messages")
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A rank that receives a message nobody sends must be detected as a
	// distributed deadlock quickly, not via the wall-clock limit.
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	m.BSS("buf", 64)
	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	f.Cmpi(isa.R0, 0)
	skip := f.NewLabel()
	f.Bne(skip)
	f.CallArgs("MPI_Recv", asm.Sym("buf"), asm.Imm(4), asm.Imm(abi.DTInt32),
		asm.Imm(1), asm.Imm(99), asm.Imm(abi.CommWorld), asm.Imm(0))
	f.Label(skip)
	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res := Run(Job{Image: im, Size: 2, Budget: 10_000_000})
	if !res.HangDetected {
		t.Fatal("expected hang detection")
	}
	if res.HangCause != "distributed deadlock" {
		t.Fatalf("hang cause = %q", res.HangCause)
	}
}

func TestCrashOnWildPointer(t *testing.T) {
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	f := m.Func("main")
	f.Prologue(0)
	f.Movi(isa.R1, 0x12) // unmapped address
	f.Ld(isa.R2, isa.R1, 0)
	f.Movi(isa.R0, 0)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res := Run(Job{Image: im, Size: 1, Budget: 1_000_000})
	tr := res.Ranks[0].Trap
	if tr == nil || tr.Kind != vm.TrapSegv && tr.Kind != vm.TrapIll && tr.Kind != vm.TrapFpe {
		t.Fatalf("want SIGSEGV, got %v", tr)
	}
	if !bytes.Contains(res.Stderr[0], []byte("p4_error")) {
		t.Fatalf("stderr missing MPICH-style banner: %q", res.Stderr[0])
	}
}

func TestAppAbortIsDetected(t *testing.T) {
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	m.DataString("msg", "NaN detected\n")
	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("app_abort", asm.Sym("msg"), asm.Imm(13))
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res := Run(Job{Image: im, Size: 1, Budget: 1_000_000})
	tr := res.Ranks[0].Trap
	if tr == nil || tr.Kind.String() != "abort" {
		t.Fatalf("want abort, got %v", tr)
	}
	if !strings.Contains(string(res.Stderr[0]), "NaN detected") {
		t.Fatalf("stderr = %q", res.Stderr[0])
	}
}

func TestMPIArgCheckRaisesHandler(t *testing.T) {
	// Registering an error handler and sending to a nonexistent rank must
	// produce the MPI-Detected manifestation (§6.2).
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	m.BSS("buf", 16)
	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Errhandler_set", asm.Imm(abi.CommWorld), asm.Imm(1))
	f.CallArgs("MPI_Send", asm.Sym("buf"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Imm(999), asm.Imm(0), asm.Imm(abi.CommWorld))
	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res := Run(Job{Image: im, Size: 2, Budget: 1_000_000})
	// Both ranks raise the handler; whichever traps first kills the
	// other, so ask for the job-level verdict rather than rank 0's.
	tr := res.FirstFailure()
	if tr == nil || tr.Kind != vm.TrapMPIHandler {
		t.Fatalf("want mpi-handler, got %v", tr)
	}
}

func TestCollectivesGatherScatterAlltoall(t *testing.T) {
	// Exercise gather/scatter/alltoall through guest stubs on 4 ranks:
	// rank r contributes r+1; rank 0 gathers, scatters back doubled
	// values, and an alltoall rotates single words.  Rank 0 prints a
	// fingerprint of what it saw.
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	m.DataString("nl", "\n")
	m.BSS("val", 4)
	m.BSS("gath", 4*8)
	m.BSS("scat", 4)
	m.BSS("a2as", 4*8)
	m.BSS("a2ar", 4*8)
	m.BSS("myrank", 4)

	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	f.StSym("myrank", 0, isa.R0)
	f.Addi(isa.R1, isa.R0, 1)
	f.StSym("val", 0, isa.R1)

	f.CallArgs("MPI_Gather", asm.Sym("val"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Sym("gath"), asm.Imm(0), asm.Imm(abi.CommWorld))

	// Rank 0 doubles each gathered value in place.
	f.LdSym(isa.R0, "myrank", 0)
	f.Cmpi(isa.R0, 0)
	notroot := f.NewLabel()
	f.Bne(notroot)
	f.Movi(isa.R2, 0)
	dl, dd := f.NewLabel(), f.NewLabel()
	f.Label(dl)
	f.Cmpi(isa.R2, 16)
	f.Bge(dd)
	f.MoviSym(isa.R3, "gath", 0)
	f.Ldx(isa.R4, isa.R3, isa.R2, 0)
	f.Add(isa.R4, isa.R4, isa.R4)
	f.Stx(isa.R3, isa.R2, 0, isa.R4)
	f.Addi(isa.R2, isa.R2, 4)
	f.Jmp(dl)
	f.Label(dd)
	f.Label(notroot)

	f.CallArgs("MPI_Scatter", asm.Sym("gath"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Sym("scat"), asm.Imm(0), asm.Imm(abi.CommWorld))

	// alltoall: send word j = rank*10 + j.
	f.LdSym(isa.R0, "myrank", 0)
	f.Muli(isa.R1, isa.R0, 10)
	f.Movi(isa.R2, 0) // byte offset
	al, ad := f.NewLabel(), f.NewLabel()
	f.Label(al)
	f.Cmpi(isa.R2, 16)
	f.Bge(ad)
	f.MoviSym(isa.R3, "a2as", 0)
	f.Shri(isa.R4, isa.R2, 2)
	f.Add(isa.R4, isa.R1, isa.R4)
	f.Stx(isa.R3, isa.R2, 0, isa.R4)
	f.Addi(isa.R2, isa.R2, 4)
	f.Jmp(al)
	f.Label(ad)
	f.CallArgs("MPI_Alltoall", asm.Sym("a2as"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Sym("a2ar"), asm.Imm(abi.CommWorld))

	// Rank 0: print scat and a2ar[3] (= 3*10+0 = 30).
	f.LdSym(isa.R0, "myrank", 0)
	f.Cmpi(isa.R0, 0)
	skip := f.NewLabel()
	f.Bne(skip)
	f.LdSym(isa.R1, "scat", 0)
	f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("nl"), asm.Imm(1))
	f.LdSym(isa.R1, "a2ar", 12)
	f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("nl"), asm.Imm(1))
	f.Label(skip)

	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()

	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res := Run(Job{Image: im, Size: 4, Budget: 50_000_000})
	if res.HangDetected {
		t.Fatalf("unexpected hang: %s", res.HangCause)
	}
	want := "2\n30\n" // scat = double(rank0's 1) = 2; a2ar[3] from rank 3 = 30
	if got := string(res.Stdout[0]); got != want {
		t.Fatalf("stdout = %q, want %q", got, want)
	}
}
