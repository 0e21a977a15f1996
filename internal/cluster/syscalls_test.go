package cluster

import (
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// TestMPIArgFetchOrder: the decoder fetches every argument abi.MPICalls
// gives a call, in order, before the API layer runs.  With sp on unmapped
// memory, a call with stack arguments traps SIGSEGV at sp itself (the
// fifth argument's slot) and sends nothing; a call whose arguments all
// travel in r0-r3 never touches the stack.
func TestMPIArgFetchOrder(t *testing.T) {
	const badSP = 0x10 // below the text segment
	for _, c := range abi.MPICalls {
		im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
			m.BSS("saved_sp", 4)
			m.BSS("out", 4)
			f.CallArgs("MPI_Init")
			f.CallArgs("print_int", asm.Imm(abi.FdStdout), asm.Imm(7))
			f.StSym("saved_sp", 0, isa.SP)
			f.Movi(isa.R0, abi.CommWorld)
			f.Movi(isa.R1, 1)
			f.Movi(isa.R2, abi.DTInt32)
			f.Movi(isa.R3, 1) // MPI_Send's dest: rank 1
			if c.Args <= 4 {
				f.MoviSym(isa.R3, "out", 0)
			}
			f.Movi(isa.SP, badSP)
			f.Sys(c.Num)
			f.LdSym(isa.SP, "saved_sp", 0)
			f.CallArgs("MPI_Finalize")
		})
		res := Run(Job{Image: im, Size: 2, Budget: 1_000_000, RecordTapes: true})
		if len(res.Stdout[0]) == 0 || res.Stdout[0][0] != '7' {
			t.Fatalf("%s: rank 0 never reached the call: %v", c.Name, res.Ranks[0].Trap)
		}
		tr := res.Ranks[0].Trap
		onSP := tr != nil && tr.Kind == vm.TrapSegv && tr.Addr == badSP
		if c.Args > 4 && !onSP {
			t.Errorf("%s (%d args): trap %v, want SIGSEGV at sp %#x", c.Name, c.Args, tr, badSP)
		}
		if c.Args <= 4 && onSP {
			t.Errorf("%s (%d args) loaded from the stack: %v", c.Name, c.Args, tr)
		}
		if c.Args > 4 {
			for _, ev := range res.Tapes[0] {
				if ev.Kind == mpi.TapeSend {
					t.Errorf("%s: the API layer sent a packet before its arguments were fetched", c.Name)
				}
			}
		}
	}
}
