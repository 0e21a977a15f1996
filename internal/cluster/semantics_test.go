package cluster

import (
	"strings"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/isa"
	"mpifault/internal/vm"
)

// TestMessageOrderingSameEnvelope: two sends with the same (src, tag)
// must be received in send order (MPI non-overtaking rule), including
// when the first parks in the unexpected queue.
func TestMessageOrderingSameEnvelope(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("v1", 4)
		m.BSS("v2", 4)
		m.BSS("buf", 4)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		odd, done := f.NewLabel(), f.NewLabel()
		f.Cmpi(isa.R0, 0)
		f.Bne(odd)
		// rank 0: send 111 then 222 with identical envelopes, then a
		// barrier-ish ping so rank 1 has both parked before receiving.
		f.Movi(isa.R1, 111)
		f.StSym("buf", 0, isa.R1)
		f.CallArgs("MPI_Send", asm.Sym("buf"), asm.Imm(1), asm.Imm(abi.DTInt32),
			asm.Imm(1), asm.Imm(4), asm.Imm(abi.CommWorld))
		f.Movi(isa.R1, 222)
		f.StSym("buf", 0, isa.R1)
		f.CallArgs("MPI_Send", asm.Sym("buf"), asm.Imm(1), asm.Imm(abi.DTInt32),
			asm.Imm(1), asm.Imm(4), asm.Imm(abi.CommWorld))
		f.Jmp(done)
		f.Label(odd)
		// rank 1: a barrier ensures both messages are parked, then two
		// receives must return them in send order.
		f.CallArgs("MPI_Barrier", asm.Imm(abi.CommWorld))
		f.CallArgs("MPI_Recv", asm.Sym("v1"), asm.Imm(1), asm.Imm(abi.DTInt32),
			asm.Imm(0), asm.Imm(4), asm.Imm(abi.CommWorld), asm.Imm(0))
		f.CallArgs("MPI_Recv", asm.Sym("v2"), asm.Imm(1), asm.Imm(abi.DTInt32),
			asm.Imm(0), asm.Imm(4), asm.Imm(abi.CommWorld), asm.Imm(0))
		f.LdSym(isa.R1, "v1", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.LdSym(isa.R1, "v2", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.Label(done)
		// rank 0 joins the barrier after its sends.
		f.LdSym(isa.R0, "buf", 0) // harmless load
		f.Cmpi(isa.R0, 222)
		skipBar := f.NewLabel()
		f.Bne(skipBar)
		f.CallArgs("MPI_Barrier", asm.Imm(abi.CommWorld))
		f.Label(skipBar)
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 2, Budget: 20_000_000})
	mustExitClean(t, res)
	if got := string(res.Stdout[1]); got != "111222" {
		t.Fatalf("messages reordered: %q", got)
	}
}

// TestTruncationIsFatal: a message longer than the posted buffer is an
// MPICH-fatal error (Crash), not silent truncation.
func TestTruncationIsFatal(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("big", 64)
		m.BSS("small", 8)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		odd := f.NewLabel()
		done := f.NewLabel()
		f.Cmpi(isa.R0, 0)
		f.Bne(odd)
		f.CallArgs("MPI_Send", asm.Sym("big"), asm.Imm(16), asm.Imm(abi.DTInt32),
			asm.Imm(1), asm.Imm(1), asm.Imm(abi.CommWorld))
		f.Jmp(done)
		f.Label(odd)
		f.CallArgs("MPI_Recv", asm.Sym("small"), asm.Imm(2), asm.Imm(abi.DTInt32),
			asm.Imm(0), asm.Imm(1), asm.Imm(abi.CommWorld), asm.Imm(0))
		f.Label(done)
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 2, Budget: 20_000_000})
	tr := res.Ranks[1].Trap
	if tr == nil || tr.Kind != vm.TrapMPIFatal || !strings.Contains(tr.Msg, "truncated") {
		t.Fatalf("trap = %v", tr)
	}
}

// TestSelfSendLoopback: a rank may send to itself if the receive is
// posted (or the message is eager and buffered).
func TestSelfSendLoopback(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("out", 4)
		m.BSS("in", 4)
		f.CallArgs("MPI_Init")
		f.Movi(isa.R1, 777)
		f.StSym("out", 0, isa.R1)
		f.CallArgs("MPI_Send", asm.Sym("out"), asm.Imm(1), asm.Imm(abi.DTInt32),
			asm.Imm(0), asm.Imm(2), asm.Imm(abi.CommWorld))
		f.CallArgs("MPI_Recv", asm.Sym("in"), asm.Imm(1), asm.Imm(abi.DTInt32),
			asm.Imm(0), asm.Imm(2), asm.Imm(abi.CommWorld), asm.Imm(0))
		f.LdSym(isa.R1, "in", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 1, Budget: 10_000_000})
	mustExitClean(t, res)
	if got := string(res.Stdout[0]); got != "777" {
		t.Fatalf("self-send echoed %q", got)
	}
}

// TestLargeSelfSendStaysEager: self-sends must not rendezvous against
// the sender itself, whatever their size.
func TestLargeSelfSendStaysEager(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("out", 8192)
		m.BSS("in", 8192)
		f.CallArgs("MPI_Init")
		f.Movi(isa.R1, 31)
		f.StSym("out", 0, isa.R1)
		f.CallArgs("MPI_Send", asm.Sym("out"), asm.Imm(2048), asm.Imm(abi.DTInt32),
			asm.Imm(0), asm.Imm(2), asm.Imm(abi.CommWorld))
		f.CallArgs("MPI_Recv", asm.Sym("in"), asm.Imm(2048), asm.Imm(abi.DTInt32),
			asm.Imm(0), asm.Imm(2), asm.Imm(abi.CommWorld), asm.Imm(0))
		f.LdSym(isa.R1, "in", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 1, Budget: 20_000_000})
	mustExitClean(t, res)
	if got := string(res.Stdout[0]); got != "31" {
		t.Fatalf("large self-send echoed %q", got)
	}
}

// TestZeroCountMessage: zero-element messages are legal and match.
func TestZeroCountMessage(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("buf", 4)
		m.BSS("status", 12)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		odd, done := f.NewLabel(), f.NewLabel()
		f.Cmpi(isa.R0, 0)
		f.Bne(odd)
		f.CallArgs("MPI_Send", asm.Sym("buf"), asm.Imm(0), asm.Imm(abi.DTF64),
			asm.Imm(1), asm.Imm(6), asm.Imm(abi.CommWorld))
		f.Jmp(done)
		f.Label(odd)
		f.CallArgs("MPI_Recv", asm.Sym("buf"), asm.Imm(0), asm.Imm(abi.DTF64),
			asm.Imm(0), asm.Imm(6), asm.Imm(abi.CommWorld), asm.Sym("status"))
		f.LdSym(isa.R1, "status", 8) // count = 0
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.Label(done)
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 2, Budget: 10_000_000})
	mustExitClean(t, res)
	if got := string(res.Stdout[1]); got != "0" {
		t.Fatalf("zero-count status = %q", got)
	}
}

// TestEagerRendezvousBoundary: payloads at and just above the eager
// threshold both arrive intact.
func TestEagerRendezvousBoundary(t *testing.T) {
	// Default threshold is 1024 bytes: 128 f64 = exactly eager,
	// 129 f64 = rendezvous.
	for _, words := range []int32{256, 257} {
		words := words
		im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
			m.BSS("sb", 2048+64)
			m.BSS("rb", 2048+64)
			f.CallArgs("MPI_Init")
			f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
			odd, done := f.NewLabel(), f.NewLabel()
			f.Cmpi(isa.R0, 0)
			f.Bne(odd)
			f.Movi(isa.R1, 12345)
			f.StSym("sb", (words-1)*4, isa.R1)
			f.CallArgs("MPI_Send", asm.Sym("sb"), asm.Imm(words), asm.Imm(abi.DTInt32),
				asm.Imm(1), asm.Imm(8), asm.Imm(abi.CommWorld))
			f.Jmp(done)
			f.Label(odd)
			f.CallArgs("MPI_Recv", asm.Sym("rb"), asm.Imm(words), asm.Imm(abi.DTInt32),
				asm.Imm(0), asm.Imm(8), asm.Imm(abi.CommWorld), asm.Imm(0))
			f.LdSym(isa.R1, "rb", (words-1)*4)
			f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
			f.Label(done)
			f.CallArgs("MPI_Finalize")
		})
		res := Run(Job{Image: im, Size: 2, Budget: 20_000_000})
		mustExitClean(t, res)
		if got := string(res.Stdout[1]); got != "12345" {
			t.Fatalf("words=%d: last element %q", words, got)
		}
	}
}

// TestAnySourceAnyTag: wildcards receive from whoever sends first and
// the status reports the true envelope.
func TestAnySourceAnyTag(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.BSS("buf", 4)
		m.BSS("status", 12)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		recvr, done := f.NewLabel(), f.NewLabel()
		f.Cmpi(isa.R0, 0)
		f.Beq(recvr)
		// senders: rank r sends its rank with tag 100+r
		f.StSym("buf", 0, isa.R0)
		f.Addi(isa.R1, isa.R0, 100)
		f.CallArgs("MPI_Send", asm.Sym("buf"), asm.Imm(1), asm.Imm(abi.DTInt32),
			asm.Imm(0), asm.Reg(isa.R1), asm.Imm(abi.CommWorld))
		f.Jmp(done)
		f.Label(recvr)
		// receiver: three wildcard receives; sum of values = 1+2+3.
		f.Movi(isa.R4, 0)
		loop, lend := f.NewLabel(), f.NewLabel()
		f.Label(loop)
		f.Cmpi(isa.R4, 3)
		f.Bge(lend)
		f.Push(isa.R4)
		f.CallArgs("MPI_Recv", asm.Sym("buf"), asm.Imm(1), asm.Imm(abi.DTInt32),
			asm.Imm(abi.AnySource), asm.Imm(abi.AnyTag), asm.Imm(abi.CommWorld), asm.Sym("status"))
		// status cross-check: tag - source must be 100.
		f.LdSym(isa.R1, "status", 0)
		f.LdSym(isa.R2, "status", 4)
		f.Sub(isa.R2, isa.R2, isa.R1)
		f.Cmpi(isa.R2, 100)
		okc := f.NewLabel()
		f.Beq(okc)
		f.Movi(isa.R0, 9)
		f.Sys(abi.SysExit) // mismatch: fail loudly
		f.Label(okc)
		f.Pop(isa.R4)
		f.Addi(isa.R4, isa.R4, 1)
		f.Jmp(loop)
		f.Label(lend)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Imm(1))
		f.Label(done)
		f.CallArgs("MPI_Finalize")
	})
	res := Run(Job{Image: im, Size: 4, Budget: 20_000_000})
	mustExitClean(t, res)
	if got := string(res.Stdout[0]); got != "1" {
		t.Fatalf("wildcard receiver printed %q", got)
	}
}

// TestFileStoreMultipleFiles: named output files are collected per name.
func TestFileStoreMultipleFiles(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.DataString("fa", "alpha.out")
		m.DataString("fb", "beta.out")
		m.DataString("da", "AAAA")
		m.DataString("db", "BB")
		f.CallArgs("open", asm.Sym("fa"), asm.Imm(9))
		f.Push(isa.R0)
		f.CallArgs("open", asm.Sym("fb"), asm.Imm(8))
		f.Movr(isa.R3, isa.R0)
		f.Pop(isa.R2)
		f.Push(isa.R3)
		f.CallArgs("print", asm.Reg(isa.R2), asm.Sym("da"), asm.Imm(4))
		f.Pop(isa.R3)
		f.CallArgs("print", asm.Reg(isa.R3), asm.Sym("db"), asm.Imm(2))
	})
	res := Run(Job{Image: im, Size: 1, Budget: 10_000_000})
	mustExitClean(t, res)
	if string(res.Files["alpha.out"]) != "AAAA" || string(res.Files["beta.out"]) != "BB" {
		t.Fatalf("files = %q", res.Files)
	}
}

// TestCanonicalOutputIncludesFiles: the comparison blob covers console
// and files, in deterministic order.
func TestCanonicalOutputIncludesFiles(t *testing.T) {
	a := &Result{
		Stdout: [][]byte{[]byte("con")},
		Files:  map[string][]byte{"z.out": []byte("Z"), "a.out": []byte("A")},
	}
	b := &Result{
		Stdout: [][]byte{[]byte("con")},
		Files:  map[string][]byte{"a.out": []byte("A"), "z.out": []byte("Z")},
	}
	if string(a.CanonicalOutput()) != string(b.CanonicalOutput()) {
		t.Fatal("canonical output depends on map order")
	}
	if !strings.Contains(string(a.CanonicalOutput()), "a.out") {
		t.Fatal("file names missing from canonical output")
	}
}
