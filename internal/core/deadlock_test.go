package core_test

import (
	"reflect"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/classify"
	"mpifault/internal/core"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/report"
)

// deadlockGuest is a three-rank program: rank 0 sends rank 1 a tag-5
// message and waits for its tag-6 answer; rank 1 answers, then waits for
// rank 2's tag-7 message, which rank 2 sends after a while; all finalize.
// A flipped tag, communicator or sequence field loses a message, and the
// rank waiting for it starves where its tape holds an output.
func deadlockGuest(t *testing.T) *image.Image {
	t.Helper()
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	m.BSS("buf", 16)
	m.BSS("status", 12)
	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	send := func(dst, tag int32) {
		f.CallArgs("MPI_Send", asm.Sym("buf"), asm.Imm(4), asm.Imm(abi.DTInt32),
			asm.Imm(dst), asm.Imm(tag), asm.Imm(abi.CommWorld))
	}
	recv := func(src, tag int32) {
		f.CallArgs("MPI_Recv", asm.Sym("buf"), asm.Imm(4), asm.Imm(abi.DTInt32),
			asm.Imm(src), asm.Imm(tag), asm.Imm(abi.CommWorld), asm.Sym("status"))
	}
	one, two, done := f.NewLabel(), f.NewLabel(), f.NewLabel()
	f.Cmpi(isa.R0, 1)
	f.Beq(one)
	f.Cmpi(isa.R0, 2)
	f.Beq(two)
	send(1, 5)
	recv(1, 6)
	f.Jmp(done)
	f.Label(one)
	recv(0, 5)
	send(0, 6)
	recv(2, 7)
	f.Jmp(done)
	f.Label(two)
	f.Movi(isa.R2, 0)
	loop := f.NewLabel()
	f.Label(loop)
	f.Addi(isa.R2, isa.R2, 1)
	f.Cmpi(isa.R2, 2000)
	f.Blt(loop)
	send(1, 7)
	f.Label(done)
	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestDeadlockDecidedSoloDirected: message faults on deadlockGuest decide
// most of their Hangs on the injected rank alone, and every experiment —
// outcome, detail, flight record and divergence — is the one the all-live
// whole job produces.  (TestSoloDifferential holds deadlocks decided from
// checkpoints.)
func TestDeadlockDecidedSoloDirected(t *testing.T) {
	solo, whole, err := core.SoloDifferential(core.Config{
		Image: deadlockGuest(t), Ranks: 3, Injections: 64, Seed: 5, Regions: []core.Region{core.RegionMessage},
		KeepExperiments: true, Forensics: true, TraceDiff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hangs := 0
	for i, e := range solo.Experiments {
		w := whole.Experiments[i]
		if !report.SameOutcome(e, w) || !reflect.DeepEqual(e.Forensics, w.Forensics) {
			t.Errorf("%s:\nsolo first %+v %+v\nwhole job  %+v %+v", e.ID(), e, e.Divergence(), w, w.Divergence())
		}
		if e.Outcome == classify.Hang {
			hangs++
		}
	}
	if st := solo.Solo; 2*st.Deadlock < uint64(hangs) || st.Deadlock > uint64(hangs) {
		t.Errorf("%+v, %d hangs: want most decided solo", st, hangs)
	}
}
