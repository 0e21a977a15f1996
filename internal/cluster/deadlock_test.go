package cluster

import (
	"encoding/binary"
	"reflect"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/msgtrace"
	"mpifault/internal/vm"
)

// Deadlocks decided on one rank (mpi.Deps): a rank that starves on its
// tape is fed what its peers still send it, and if it then asks for more,
// having said nothing, RunSolo reports the job's deadlock.  Each positive
// case below is held against the all-live job — its verdict, the killed
// rank's trap and clock, and the first divergence of every rank's outputs
// — and each negative case must leave the job to be run whole.

// step is one piece of a scripted guest.
type step func(f *asm.Func)

func sendTo(dst, tag, words int32) step {
	return func(f *asm.Func) {
		f.CallArgs("MPI_Send", asm.Sym("sbuf"), asm.Imm(words), asm.Imm(abi.DTInt32),
			asm.Imm(dst), asm.Imm(tag), asm.Imm(abi.CommWorld))
	}
}

func recvFrom(src, tag, words int32) step {
	return func(f *asm.Func) {
		f.CallArgs("MPI_Recv", asm.Sym("rbuf"), asm.Imm(words), asm.Imm(abi.DTInt32),
			asm.Imm(src), asm.Imm(tag), asm.Imm(abi.CommWorld), asm.Sym("status"))
	}
}

func isendTo(dst, tag, words int32) step {
	return func(f *asm.Func) {
		f.CallArgs("MPI_Isend", asm.Sym("sbuf"), asm.Imm(words), asm.Imm(abi.DTInt32),
			asm.Imm(dst), asm.Imm(tag), asm.Imm(abi.CommWorld), asm.Sym("req"))
	}
}

func waitReq(f *asm.Func) { f.CallArgs("MPI_Wait", asm.Sym("req"), asm.Sym("status")) }

func printOne(f *asm.Func) { f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Imm(1)) }

// busy retires about 3n instructions.
func busy(n int32) step {
	return func(f *asm.Func) {
		f.Movi(isa.R2, 0)
		loop := f.NewLabel()
		f.Label(loop)
		f.Addi(isa.R2, isa.R2, 1)
		f.Cmpi(isa.R2, n)
		f.Blt(loop)
	}
}

// openFile opens the one file every rank shares: the fd is the world's next.
func openFile(f *asm.Func) { f.CallArgs("open", asm.Sym("name"), asm.Imm(7)) }

// splitByParity splits the world into even and odd ranks, into sub.
func splitByParity(f *asm.Func) {
	f.LdSym(isa.R0, "myrank", 0)
	f.Andi(isa.R1, isa.R0, 1)
	f.CallArgs("MPI_Comm_split", asm.Imm(abi.CommWorld), asm.Reg(isa.R1), asm.Reg(isa.R0), asm.Sym("sub"))
}

// dupSub duplicates sub: its rank 0 allocates a context base.
func dupSub(f *asm.Func) {
	f.LdSym(isa.R3, "sub", 0)
	f.CallArgs("MPI_Comm_dup", asm.Reg(isa.R3), asm.Sym("dup"))
}

// buildScript links a guest in which every rank runs common, then rank r
// runs script[r], and exits without MPI_Finalize, so a packet sent late
// may stay unpulled.
func buildScript(t *testing.T, common []step, script ...[]step) *image.Image {
	return buildProgram(t, func(m *asm.Module, f *asm.Func) {
		for _, v := range []struct {
			name string
			size uint32
		}{{"sbuf", 4096}, {"rbuf", 4096}, {"status", 12}, {"req", 4}, {"myrank", 4}, {"sub", 4}, {"dup", 4}} {
			m.BSS(v.name, v.size)
		}
		m.DataString("name", "out.txt")
		f.CallArgs("MPI_Init")
		f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
		f.StSym("myrank", 0, isa.R0)
		for _, s := range common {
			s(f)
		}
		end := f.NewLabel()
		for r, steps := range script {
			next := f.NewLabel()
			f.LdSym(isa.R0, "myrank", 0)
			f.Cmpi(isa.R0, int32(r))
			f.Bne(next)
			for _, s := range steps {
				s(f)
			}
			f.Jmp(end)
			f.Label(next)
		}
		f.Label(end)
	})
}

// flipTag turns the first tag-5 message the rank pulls from src into a
// tag-4 one, which nothing receives.
func flipTag(src int) func([]byte) {
	done := false
	return func(pkt []byte) {
		if !done && mpi.RawSource(pkt) == src && binary.LittleEndian.Uint32(pkt[16:]) == 5 {
			pkt[16] ^= 1
			done = true
		}
	}
}

// starved is what a solo run's Starve was asked and answered.
type starved struct {
	asked bool
	pos   int
	feed  [][]byte
	ok    bool
}

// decide runs rank of rec's job alone, with hook on its pulls and its
// starving answered from rec's Deps, and the job with every rank live, the
// same hook on the same rank, recording tapes.
func decide(t *testing.T, job Job, rec *Result, rank int, hook func() func([]byte)) (SoloResult, *Result, starved) {
	t.Helper()
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == rank {
			p.RecvHook = hook()
		}
	}
	deps := mpi.NewDeps(rec.Tapes, rec.Needs)
	var st starved
	solo := job
	solo.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		job.Setup(r, m, p)
		p.Starve = func(pos int) ([][]byte, bool) {
			st.asked, st.pos = true, pos
			st.feed, st.ok = deps.Starved(rank, pos)
			return st.feed, st.ok
		}
	}
	res := RunSolo(solo, rank, rec.Tapes[rank], nil)
	job.RecordTapes = true
	return res, Run(job), st
}

// sameDeadlock holds a solo Hang against the all-live job.
func sameDeadlock(t *testing.T, solo SoloResult, whole *Result, rec *Result, rank int) {
	t.Helper()
	if !solo.Hang || solo.Trap == nil {
		t.Fatalf("alone: %+v %v, want a deadlock", solo, solo.Trap)
	}
	if !whole.HangDetected || whole.HangCause != Deadlock || whole.FirstFailure() != nil {
		t.Fatalf("the all-live job:\n%s", verdict(whole))
	}
	rr := whole.Ranks[rank]
	if *solo.Trap != *rr.Trap || rr.Reason != vm.StopTrap || solo.Instrs != rr.Instrs {
		t.Errorf("alone the rank ends %v at %d, in the job %v at %d (%v)", solo.Trap, solo.Instrs, rr.Trap, rr.Instrs, rr.Reason)
	}
	cut := make([]mpi.Tape, len(rec.Tapes))
	for r, c := range mpi.NewDeps(rec.Tapes, rec.Needs).Cuts(rank, solo.Pos) {
		cut[r] = rec.Tapes[r][:c]
	}
	got, want := msgtrace.Diff(rec.Tapes, cut, -1), msgtrace.Diff(rec.Tapes, whole.Tapes, -1)
	if want == nil || !reflect.DeepEqual(got, want) {
		t.Errorf("divergence at the cut %+v, in the job %+v", got, want)
	}
}

// TestDeadlockDecidedSolo: rank 1 waits for rank 0's tag-5 message and
// answers it.  With the tag flipped the message parks, and rank 1 starves
// where it would answer: rank 0 waits for that answer, so the job
// deadlocks.  With a third rank's message arriving late, rank 1 is fed it,
// parks it too and still waits: the same deadlock, rank 2 having exited.
func TestDeadlockDecidedSolo(t *testing.T) {
	for _, tc := range []struct {
		name   string
		script [][]step
		fed    int
	}{
		{"nothing to feed", [][]step{
			{sendTo(1, 5, 1), recvFrom(1, 6, 1)},
			{recvFrom(0, 5, 1), sendTo(0, 6, 1)},
		}, 0},
		{"a second sender's packet fed", [][]step{
			{sendTo(1, 5, 1), recvFrom(1, 6, 1)},
			{recvFrom(0, 5, 1), sendTo(0, 6, 1), recvFrom(2, 7, 1)},
			{busy(2000), sendTo(1, 7, 1)},
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := Job{Image: buildScript(t, nil, tc.script...), Size: len(tc.script), Budget: 10_000_000}
			rec := recordRun(t, job, CheckpointSpec{})
			solo, whole, st := decide(t, job, rec, 1, func() func([]byte) { return flipTag(0) })
			if !st.asked || !st.ok || len(st.feed) != tc.fed {
				t.Fatalf("starved %+v, want %d packets fed", st, tc.fed)
			}
			sameDeadlock(t, solo, whole, rec, 1)
		})
	}
}

// TestStarvedRankFallsBack: a starved rank the peers can still move, or
// whose peers the tapes cannot vouch for, is left to the whole job.
func TestStarvedRankFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		common []step
		script [][]step
		// fed: Starve answers, and feeds that many packets; -1: it cannot
		// tell.
		fed int
	}{
		// Rank 0's second tag-5 message ends the wait, and rank 1 answers.
		{"a fed packet ends the wait", nil, [][]step{
			{sendTo(1, 5, 1), sendTo(1, 5, 1), recvFrom(1, 6, 1)},
			{recvFrom(0, 5, 1), sendTo(0, 6, 1), recvFrom(0, 5, 1)},
		}, 1},
		// The second message is sent but never pulled: rank 1 exits
		// first.  Without it the rank would look blocked for good.
		{"a packet never pulled ends the wait", nil, [][]step{
			{sendTo(1, 5, 1), sendTo(1, 5, 1)},
			{recvFrom(0, 5, 1), printOne},
		}, 1},
		// Rank 0 grants rank 1's rendezvous late: the CTS fed to the
		// starved rank makes it send its data.
		{"a fed CTS", nil, [][]step{
			{sendTo(1, 5, 1), busy(2000), recvFrom(1, 6, 512)},
			{isendTo(0, 6, 512), recvFrom(0, 5, 1), sendTo(2, 7, 1), waitReq},
			{recvFrom(1, 7, 1)},
		}, 1},
		// The deadlock of TestDeadlockDecidedSolo, and a rank that posts
		// a receive naming no source.
		{"a wildcard receive", nil, [][]step{
			{sendTo(1, 5, 1), recvFrom(1, 6, 1)},
			{recvFrom(0, 5, 1), sendTo(0, 6, 1)},
			{sendTo(3, 8, 1)},
			{recvFrom(abi.AnySource, 8, 1)},
		}, -1},
		// Odd ranks' sub-communicator is duplicated before the even
		// ranks': stuck before its allocation, rank 1 leaves rank 0 to be
		// handed its base.
		{"an allocation order", []step{splitByParity}, [][]step{
			{sendTo(1, 5, 1), busy(3000), dupSub},
			{recvFrom(0, 5, 1), dupSub},
			{dupSub},
			{dupSub},
		}, -1},
		// The same with fds, and a context allocated first by all.
		{"an fd order", []step{splitByParity}, [][]step{
			{sendTo(1, 5, 1), busy(3000), openFile},
			{recvFrom(0, 5, 1), openFile},
		}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := Job{Image: buildScript(t, tc.common, tc.script...), Size: len(tc.script), Budget: 10_000_000}
			rec := recordRun(t, job, CheckpointSpec{})
			solo, whole, st := decide(t, job, rec, 1, func() func([]byte) { return flipTag(0) })
			switch {
			case !st.asked:
				t.Fatalf("rank 1 never starved: %+v %v", solo, solo.Trap)
			case tc.fed < 0 && st.ok, tc.fed >= 0 && (!st.ok || len(st.feed) != tc.fed):
				t.Fatalf("starved %+v, want %d packets fed", st, tc.fed)
			case solo.Trap != nil || solo.Hang:
				t.Fatalf("alone: %+v %v, want no verdict", solo, solo.Trap)
			}
			if tc.name == "a packet never pulled ends the wait" && whole.HangDetected {
				t.Errorf("the all-live job hangs:\n%s", verdict(whole))
			}
		})
	}
}
