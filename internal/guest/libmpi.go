// Package guest provides the guest-side runtime libraries that every
// workload links against: a small libc (memory, console, abort) and the
// MPI library stubs.
//
// The MPI stubs live in a module flagged image.OwnerMPI.  Their text,
// data and BSS symbols are therefore excluded from the fault injector's
// dictionary, reproducing the paper's separation between user-application
// and MPI-library memory (§3.2).  The libc is part of the application, as
// a statically linked C library would be.
package guest

import (
	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// mpiStub emits one MPI wrapper function: it marshals its C-convention
// stack arguments into the syscall ABI (r0-r3 plus pushed extras) and
// issues the SYS instruction.  This is the analogue of the paper's PMPI
// wrapper functions — the seam between application and library.
func mpiStub(m *asm.Module, c abi.MPICall) {
	f := m.Func(c.Name)
	nargs := c.Args
	extras := nargs - 4
	if extras < 0 {
		extras = 0
	}
	// Push arguments 5..nargs in reverse so argument 5 ends at [sp].
	// While k pushes have been done, caller argument i (0-based) sits at
	// [sp + 4 + 4i + 4k] (the +4 skips the return address).
	k := int32(0)
	for i := nargs - 1; i >= 4; i-- {
		f.Ld(isa.R4, isa.SP, 4+4*int32(i)+4*k)
		f.Push(isa.R4)
		k++
	}
	for j := 0; j < 4 && j < nargs; j++ {
		f.Ld(j, isa.SP, 4+4*int32(j)+4*k)
	}
	// Track library-internal state so the MPI module owns live data; the
	// fault dictionary must have something real to exclude.
	f.LdSym(isa.R4, "__mpi_calls", 0)
	f.Addi(isa.R4, isa.R4, 1)
	f.StSym("__mpi_calls", 0, isa.R4)
	f.Sys(c.Num)
	if extras > 0 {
		f.Addi(isa.SP, isa.SP, 4*int32(extras))
	}
	f.Ret()
}

// AddLibMPI adds the guest MPI library module to the builder: one stub
// per abi.MPICalls entry, in syscall order.
func AddLibMPI(b *asm.Builder) *asm.Module {
	m := b.Module("libmpi", image.OwnerMPI)

	// Library-internal state (MPI-owned data/BSS, excluded from user
	// injection just like MPICH's own globals).
	m.DataI32("__mpi_state", 0)
	m.BSS("__mpi_calls", 4)
	m.BSS("__mpi_scratch", 64)

	for _, c := range abi.MPICalls {
		mpiStub(m, c)
	}
	return m
}
