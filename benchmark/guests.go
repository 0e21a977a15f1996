package main

// Synthetic guests for the per-layer probes.  Each isolates one layer's
// cost: a compute loop with no MPI (vm), a ping-pong and an allreduce
// loop whose iteration count is the only thing that varies (mpi), an
// Init/Finalize-only program (cluster job set-up and teardown) and a
// receive nobody answers (the hang verdict).  This file imports only
// the guest-authoring packages; every call into a measured layer is in
// layers.go.

import (
	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/guest"
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// computeLoop is an endless mixed integer/FP loop with no system calls;
// the instruction budget handed to Machine.Run stops it.
func computeLoop() (*image.Image, error) {
	b := asm.NewBuilder()
	m := b.Module("spin", image.OwnerUser)
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
	return b.Link(asm.LinkConfig{})
}

// mpiGuest links a program that calls MPI_Init, runs body iters times
// and calls MPI_Finalize.  The loop counter lives in memory because
// calls clobber r0-r5; body finds the rank in g_rank.
func mpiGuest(iters int32, body func(f *asm.Func)) (*image.Image, error) {
	b := asm.NewBuilder()
	guest.AddLibc(b)
	guest.AddLibMPI(b)
	m := b.Module("probe", image.OwnerUser)
	m.BSS("g_rank", 4)
	m.BSS("g_i", 4)
	m.BSS("g_in", 8)
	m.BSS("g_out", 8)

	f := m.Func("main")
	f.Prologue(0)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	f.StSym("g_rank", 0, isa.R0)
	loop, done := f.NewLabel(), f.NewLabel()
	f.Label(loop)
	f.LdSym(isa.R0, "g_i", 0)
	f.Cmpi(isa.R0, iters)
	f.Bge(done)
	if body != nil {
		body(f)
	}
	f.LdSym(isa.R0, "g_i", 0)
	f.Addi(isa.R0, isa.R0, 1)
	f.StSym("g_i", 0, isa.R0)
	f.Jmp(loop)
	f.Label(done)
	f.CallArgs("MPI_Finalize")
	f.Movi(isa.R0, 0)
	f.Epilogue()
	return b.Link(asm.LinkConfig{})
}

// initFinalize does nothing between MPI_Init and MPI_Finalize.
func initFinalize() (*image.Image, error) { return mpiGuest(0, nil) }

func send(f *asm.Func, peer int32) {
	f.CallArgs("MPI_Send", asm.Sym("g_in"), asm.Imm(1), asm.Imm(abi.DTF64),
		asm.Imm(peer), asm.Imm(7), asm.Imm(abi.CommWorld))
}

func recv(f *asm.Func, peer int32) {
	f.CallArgs("MPI_Recv", asm.Sym("g_out"), asm.Imm(1), asm.Imm(abi.DTF64),
		asm.Imm(peer), asm.Imm(7), asm.Imm(abi.CommWorld), asm.Imm(0))
}

// pingPong bounces one 8-byte message between ranks 0 and 1, roundTrips
// times; other ranks idle.  Run it on two ranks.
func pingPong(roundTrips int32) (*image.Image, error) {
	return mpiGuest(roundTrips, func(f *asm.Func) {
		one, next := f.NewLabel(), f.NewLabel()
		f.LdSym(isa.R0, "g_rank", 0)
		f.Cmpi(isa.R0, 0)
		f.Bne(one)
		send(f, 1)
		recv(f, 1)
		f.Jmp(next)
		f.Label(one)
		recv(f, 0)
		send(f, 0)
		f.Label(next)
	})
}

// allreduceLoop sums one double across all ranks, iters times.
func allreduceLoop(iters int32) (*image.Image, error) {
	return mpiGuest(iters, func(f *asm.Func) {
		f.CallArgs("MPI_Allreduce", asm.Sym("g_in"), asm.Sym("g_out"),
			asm.Imm(1), asm.Imm(abi.DTF64), asm.Imm(abi.OpSum), asm.Imm(abi.CommWorld))
	})
}

// stuckRecv blocks rank 0 in a receive that no rank ever sends; every
// other rank goes straight to MPI_Finalize.
func stuckRecv() (*image.Image, error) {
	return mpiGuest(1, func(f *asm.Func) {
		skip := f.NewLabel()
		f.LdSym(isa.R0, "g_rank", 0)
		f.Cmpi(isa.R0, 0)
		f.Bne(skip)
		recv(f, 1)
		f.Label(skip)
	})
}
