// Custom application: author a brand-new guest MPI program with the
// assembler DSL and put it under the fault injector — the workflow a user
// of this library follows to assess their own code's fault sensitivity.
//
// The program estimates pi by midpoint integration of 4/(1+x^2) over
// [0,1], each rank integrating its own stripe and an Allreduce combining
// the partial sums; rank 0 prints the estimate.
//
//	go run ./examples/custom_app
package main

import (
	"fmt"
	"log"
	"time"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/core"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
)

const stepsPerRank = 4096

func buildPi() (*image.Image, error) {
	b := asm.NewBuilder()
	guest.AddLibc(b)   // user-owned runtime: memcpy, print, abort, ...
	guest.AddLibMPI(b) // MPI-owned stubs: excluded from fault dictionary
	m := b.Module("pi", image.OwnerUser)

	m.DataString("s_pi", "pi is approximately ")
	m.DataString("s_nl", "\n")
	m.BSS("g_rank", 4)
	m.BSS("g_size", 4)
	m.BSS("g_sum", 8)
	m.BSS("g_pi", 8)

	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	f.StSym("g_rank", 0, isa.R0)
	f.CallArgs("MPI_Comm_size", asm.Imm(abi.CommWorld))
	f.StSym("g_size", 0, isa.R0)

	// h = 1/(size*steps); local sum over i in [rank*steps, (rank+1)*steps)
	// of 4/(1+x^2) with x = (i+0.5)*h.
	f.Fldz()
	f.FstpSym("g_sum", 0)
	f.LdSym(isa.R1, "g_rank", 0)
	f.Muli(isa.R1, isa.R1, stepsPerRank) // first index
	f.Movi(isa.R2, 0)                    // i
	loop, done := f.NewLabel(), f.NewLabel()
	f.Label(loop)
	f.Cmpi(isa.R2, stepsPerRank)
	f.Bge(done)
	f.Add(isa.R0, isa.R1, isa.R2)
	f.Fild(isa.R0) // [gi]
	f.FldConst(0.5)
	f.Faddp() // [gi+0.5]
	// h = 1/(size*steps)
	f.LdSym(isa.R3, "g_size", 0)
	f.Muli(isa.R3, isa.R3, stepsPerRank)
	f.Fild(isa.R3) // [n, gi+.5]
	f.Fdivp()      // [x]
	f.Fldst(0)
	f.Fmulp() // [x^2]
	f.Fld1()
	f.Faddp() // [1+x^2]
	f.FldConst(4.0)
	f.Fxch(1) // [1+x^2, 4]
	f.Fdivp() // [4/(1+x^2)]
	f.FldSym("g_sum", 0)
	f.Faddp()
	f.FstpSym("g_sum", 0)
	f.Addi(isa.R2, isa.R2, 1)
	f.Jmp(loop)
	f.Label(done)

	// sum *= h; pi = allreduce(sum)
	f.FldSym("g_sum", 0)
	f.LdSym(isa.R3, "g_size", 0)
	f.Muli(isa.R3, isa.R3, stepsPerRank)
	f.Fild(isa.R3)
	f.Fdivp()
	f.FstpSym("g_sum", 0)
	f.CallArgs("MPI_Allreduce", asm.Sym("g_sum"), asm.Sym("g_pi"),
		asm.Imm(1), asm.Imm(abi.DTF64), asm.Imm(abi.OpSum), asm.Imm(abi.CommWorld))

	f.LdSym(isa.R0, "g_rank", 0)
	f.Cmpi(isa.R0, 0)
	skip := f.NewLabel()
	f.Bne(skip)
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("s_pi"), asm.Imm(20))
	f.CallArgs("print_f64", asm.Imm(abi.FdStdout), asm.Sym("g_pi"), asm.Imm(10))
	f.CallArgs("print", asm.Imm(abi.FdStdout), asm.Sym("s_nl"), asm.Imm(1))
	f.Label(skip)

	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()

	return b.Link(asm.LinkConfig{})
}

func main() {
	log.SetFlags(0)
	im, err := buildPi()
	if err != nil {
		log.Fatal(err)
	}
	const ranks = 4

	golden, err := core.RunGolden(im, ranks, mpi.Config{}, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden: %s", golden.Result.Stdout[0])

	// A small campaign over three regions of the new program.
	res, err := core.Run(core.Config{
		Image: im, Ranks: ranks, Golden: golden, Injections: 40, Seed: 3,
		Regions: []core.Region{core.RegionRegularReg, core.RegionFPReg, core.RegionMessage},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fault sensitivity of the custom program:")
	for _, t := range res.Tallies {
		fmt.Printf("  %-14s error rate %5.1f%%\n", t.Region, t.ErrorRate())
	}
}
