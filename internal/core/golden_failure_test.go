package core

import (
	"strings"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// TestGoldenFailureNamesCulprit: a fault-free run that fails must be
// reported by the rank that failed — its trap and its last stderr line —
// not by rank 0, which the job merely took down while it waited.
func TestGoldenFailureNamesCulprit(t *testing.T) {
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("app", image.OwnerUser)
	m.BSS("buf", 8)
	m.BSS("status", 12)
	m.DataString("s_noise", "rank 1 starting\n")
	m.DataString("s_fail", "rank 1: bound exceeded\n")

	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	one := f.NewLabel()
	f.Cmpi(isa.R0, 0)
	f.Bne(one)
	// Rank 0 waits for a message that never comes.
	f.CallArgs("MPI_Recv", asm.Sym("buf"), asm.Imm(2), asm.Imm(abi.DTInt32),
		asm.Imm(1), asm.Imm(5), asm.Imm(abi.CommWorld), asm.Sym("status"))
	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()
	f.Label(one)
	f.CallArgs("print", asm.Imm(abi.FdStderr), asm.Sym("s_noise"), asm.Imm(16))
	f.CallArgs("app_abort", asm.Sym("s_fail"), asm.Imm(23))
	im, err := b.Link(asm.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}

	_, err = Run(Config{Image: im, Ranks: 2, Injections: 1, Regions: []Region{RegionRegularReg}})
	if err == nil {
		t.Fatal("a golden run whose rank 1 aborts was accepted")
	}
	for _, want := range []string{"golden run rank 1 failed", "abort", `last stderr line: "rank 1: bound exceeded"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("golden failure %q does not say %q", err, want)
		}
	}
}
