package cluster

import (
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// buildCommFiles links a guest that crosses its boundary in every way a
// tape records: a Comm_split and a Comm_dup (context allocations at rank
// 0), collectives inside both, a Sendrecv ring, and every rank opening one
// shared file — so the fd each gets depends on the others — and writing
// its reduced sums to it and to the console.
func buildCommFiles(t testing.TB) *image.Image {
	return buildProgram(t, func(m *asm.Module, f *asm.Func) {
		m.DataString("name", "sums.out")
		m.BSS("myrank", 4)
		m.BSS("nproc", 4)
		m.BSS("split", 4)
		m.BSS("dup", 4)
		m.BSS("val", 4)
		m.BSS("sum", 4)
		m.BSS("got", 4)
		m.BSS("fd", 4)
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		f.StSym("myrank", 0, isa.R0)
		f.StSym("val", 0, isa.R0)
		f.CallArgs("MPI_Comm_size", asm.Imm(abi.CommWorld))
		f.StSym("nproc", 0, isa.R0)

		f.LdSym(isa.R0, "myrank", 0)
		f.Andi(isa.R1, isa.R0, 1)
		f.CallArgs("MPI_Comm_split", asm.Imm(abi.CommWorld), asm.Reg(isa.R1),
			asm.Reg(isa.R0), asm.Sym("split"))
		f.LdSym(isa.R3, "split", 0)
		f.CallArgs("MPI_Allreduce", asm.Sym("val"), asm.Sym("sum"),
			asm.Imm(1), asm.Imm(abi.DTInt32), asm.Imm(abi.OpSum), asm.Reg(isa.R3))
		f.CallArgs("MPI_Comm_dup", asm.Imm(abi.CommWorld), asm.Sym("dup"))

		// Pass the split sum one rank to the right over the duplicate.
		f.LdSym(isa.R0, "myrank", 0)
		f.LdSym(isa.R1, "nproc", 0)
		f.Addi(isa.R2, isa.R0, 1)
		f.Rems(isa.R2, isa.R2, isa.R1) // dest
		f.Add(isa.R3, isa.R0, isa.R1)
		f.Addi(isa.R3, isa.R3, -1)
		f.Rems(isa.R3, isa.R3, isa.R1) // source
		f.LdSym(isa.R4, "dup", 0)
		f.CallArgs("MPI_Sendrecv", asm.Sym("sum"), asm.Imm(1), asm.Imm(abi.DTInt32),
			asm.Reg(isa.R2), asm.Imm(9), asm.Sym("got"), asm.Imm(1), asm.Reg(isa.R3),
			asm.Imm(9), asm.Reg(isa.R4), asm.Imm(0))

		f.CallArgs("open", asm.Sym("name"), asm.Imm(8))
		f.StSym("fd", 0, isa.R0)
		f.LdSym(isa.R1, "got", 0)
		f.CallArgs("print_int", asm.Reg(isa.R0), asm.Reg(isa.R1))
		f.LdSym(isa.R1, "sum", 0)
		f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Reg(isa.R1))
		f.CallArgs("MPI_Finalize")
	})
}

// machineState is what a replay must reproduce exactly.
type machineState struct {
	regs   [isa.NumGPR]uint32
	pc     uint32
	flags  uint32
	instrs uint64
	minSP  uint32
}

func stateOf(m *vm.Machine) machineState {
	return machineState{m.Regs, m.PC, m.Flags, m.Instrs, m.MinSP}
}

// record runs job with tapes on and returns them with every rank's machine.
func record(t *testing.T, job Job) (*Result, []*vm.Machine) {
	t.Helper()
	machines := make([]*vm.Machine, job.Size)
	job.RecordTapes = true
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) { machines[r] = m }
	res := Run(job)
	mustExitClean(t, res)
	return res, machines
}

func TestRunSoloReplaysEveryRank(t *testing.T) {
	guests := []struct {
		name string
		im   *image.Image
		size int
	}{
		{"ring-eager", buildRing(t, 8), 6},
		{"ring-rendezvous", buildRing(t, 1024), 4},
		{"split-dup-files", buildCommFiles(t), 6},
		{"one-rank", buildCommFiles(t), 1},
	}
	for _, g := range guests {
		t.Run(g.name, func(t *testing.T) {
			job := Job{Image: g.im, Size: g.size, Budget: 50_000_000}
			rec, machines := record(t, job)
			for r := 0; r < g.size; r++ {
				var solo *vm.Machine
				job.Setup = func(_ int, m *vm.Machine, p *mpi.Proc) { solo = m }
				got := RunSolo(job, r, rec.Tapes[r], nil)
				if got.Trap == nil || got.Trap.Kind != vm.TrapExit || got.Trap.Code != 0 {
					t.Fatalf("rank %d alone: %v, want a verified clean exit", r, got.Trap)
				}
				if stateOf(solo) != stateOf(machines[r]) || got.Instrs != rec.Ranks[r].Instrs {
					t.Errorf("rank %d alone ended at %+v, in the job at %+v", r, stateOf(solo), stateOf(machines[r]))
				}
			}
		})
	}
}

// firstEvent returns the index of the first event of tape satisfying ok.
func firstEvent(t testing.TB, tape mpi.Tape, ok func(i int) bool) int {
	t.Helper()
	for i := range tape {
		if ok(i) {
			return i
		}
	}
	t.Fatal("the recorded tape has no such event")
	return -1
}

func TestRunSoloDepartures(t *testing.T) {
	job := Job{Image: buildCommFiles(t), Size: 6, Budget: 50_000_000}
	rec, _ := record(t, job)
	const rank = 0 // allocates the contexts, gets the first or a later fd
	pristine := rec.Tapes[rank]
	tampered := func(edit func(tape mpi.Tape)) mpi.Tape {
		tape := append(mpi.Tape(nil), pristine...)
		edit(tape)
		return tape
	}
	cases := map[string]mpi.Tape{
		"flipped payload byte in a send": tampered(func(tape mpi.Tape) {
			i := firstEvent(t, tape, func(i int) bool {
				return tape[i].Kind == mpi.TapeSend && len(tape[i].Data) > mpi.HeaderBytes
			})
			tape[i].Data = append([]byte(nil), tape[i].Data...)
			tape[i].Data[mpi.HeaderBytes] ^= 1
		}),
		"send and receive reordered": tampered(func(tape mpi.Tape) {
			i := firstEvent(t, tape, func(i int) bool {
				return i+1 < len(tape) && tape[i].Kind == mpi.TapeSend && tape[i+1].Kind == mpi.TapeRecv
			})
			tape[i], tape[i+1] = tape[i+1], tape[i]
		}),
		"wrong fd": tampered(func(tape mpi.Tape) {
			i := firstEvent(t, tape, func(i int) bool { return tape[i].Kind == mpi.TapeWrite })
			tape[i].Arg++
		}),
		"another context count": tampered(func(tape mpi.Tape) {
			i := firstEvent(t, tape, func(i int) bool { return tape[i].Kind == mpi.TapeCtx })
			tape[i].Arg++
		}),
		"exhausted tape": pristine[:len(pristine)/2],
		"one event left": append(append(mpi.Tape(nil), pristine...), pristine[len(pristine)-1]),
	}
	for name, tape := range cases {
		t.Run(name, func(t *testing.T) {
			if got := RunSolo(job, rank, tape, nil); got.Trap != nil {
				t.Fatalf("a rank off its tape reported %v, want no verdict", got.Trap)
			}
		})
	}
	t.Run("budget", func(t *testing.T) {
		short := job
		short.Budget = rec.Ranks[rank].Instrs / 2
		if got := RunSolo(short, rank, pristine, nil); got.Trap != nil || got.Instrs != short.Budget {
			t.Fatalf("a rank stopped by its budget reported %v after %d instructions", got.Trap, got.Instrs)
		}
	})
}

// TestRecvHookLeavesTapesAlone: a recording job's receive hook (the message
// injector) flips a copy of the packet, not the bytes the sender's TapeSend
// and the receiver's TapeRecv hold.
func TestRecvHookLeavesTapesAlone(t *testing.T) {
	job := Job{Image: buildRing(t, 8), Size: 4, Budget: 10_000_000}
	clean, _ := record(t, job)
	fired := false
	job.RecordTapes = true
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == 1 {
			p.RecvHook = func(pkt []byte) {
				if !fired && len(pkt) > mpi.HeaderBytes {
					pkt[mpi.HeaderBytes] ^= 0xFF
					fired = true
				}
			}
		}
	}
	res := Run(job)
	if !fired {
		t.Fatal("the hook never fired")
	}
	// Rank 0 sends to rank 1 before it receives anything: its first send is
	// the packet rank 1 pulled first, the one the hook flipped.
	i := firstEvent(t, clean.Tapes[0], func(i int) bool { return clean.Tapes[0][i].Kind == mpi.TapeSend })
	j := firstEvent(t, res.Tapes[1], func(i int) bool { return res.Tapes[1][i].Kind == mpi.TapeRecv })
	want := clean.Tapes[0][i].Data
	if got := res.Tapes[0][i].Data; string(got) != string(want) {
		t.Errorf("the sender's tape holds % x, it sent % x", got[mpi.HeaderBytes:], want[mpi.HeaderBytes:])
	}
	if got := res.Tapes[1][j].Data; string(got) != string(want) {
		t.Errorf("the receiver's tape holds % x, it was sent % x", got[mpi.HeaderBytes:], want[mpi.HeaderBytes:])
	}
}

// TestRunSoloReportsOnTapeTrap: a fault that crashes the injected rank
// before it says anything new gives, alone, the trap the whole job reports.
func TestRunSoloReportsOnTapeTrap(t *testing.T) {
	job := Job{Image: buildRing(t, 8), Size: 4, Budget: 10_000_000}
	rec, _ := record(t, job)
	const rank = 1
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r != rank {
			return
		}
		m.TriggerAt = rec.Ranks[rank].Instrs / 2
		m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.Regs[isa.SP] = 0x10; return nil }
	}
	whole := Run(job).FirstFailure()
	if whole == nil || whole.Kind != vm.TrapSegv {
		t.Fatalf("the whole job reported %v, want a SIGSEGV", whole)
	}
	solo := RunSolo(job, rank, rec.Tapes[rank], nil)
	if solo.Trap == nil || *solo.Trap != *whole {
		t.Fatalf("alone the rank reported %v, the whole job %v", solo.Trap, whole)
	}
}
