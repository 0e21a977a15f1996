package abi

import (
	"strings"
	"testing"
)

func TestDTSize(t *testing.T) {
	cases := map[int32]uint32{DTInt32: 4, DTF64: 8, DTByte: 1, 99: 0, -1: 0}
	for dt, want := range cases {
		if got := DTSize(dt); got != want {
			t.Errorf("DTSize(%d) = %d, want %d", dt, got, want)
		}
	}
}

func TestErrNames(t *testing.T) {
	if ErrName(ErrSuccess) != "MPI_SUCCESS" {
		t.Error("success name")
	}
	if ErrName(ErrRank) != "MPI_ERR_RANK" {
		t.Error("rank name")
	}
	if ErrName(1234) != "MPI_ERR_OTHER" {
		t.Error("unknown classes map to OTHER")
	}
}

func TestSyscallNumbersDistinct(t *testing.T) {
	nums := []int32{
		SysExit, SysAbort, SysWrite, SysOpen, SysWriteInt, SysWriteF64,
		SysWriteF64Arr, SysWriteBin, SysMalloc, SysFree, SysClock,
		SysMPIInit, SysMPIFinalize, SysMPICommRank, SysMPICommSize,
		SysMPISend, SysMPIRecv, SysMPIBarrier, SysMPIBcast, SysMPIReduce,
		SysMPIAllreduce, SysMPIGather, SysMPIAllgather, SysMPIScatter,
		SysMPIAlltoall, SysMPIErrhandlerSet, SysMPIWtime,
	}
	seen := map[int32]bool{}
	for _, n := range nums {
		if seen[n] {
			t.Fatalf("duplicate syscall number %d", n)
		}
		seen[n] = true
	}
}

func TestChunkTagsDistinct(t *testing.T) {
	if ChunkUser == ChunkMPI {
		t.Fatal("chunk tags must differ")
	}
}

func TestUserTagRange(t *testing.T) {
	if MaxUserTag < 32767 {
		t.Fatal("MPI_TAG_UB must be at least 32767")
	}
}

// TestMPICallsTable: the table lists the MPI calls in syscall order, from
// 32 (MPI_Init) to 54 (MPI_Comm_dup) — the numbers guest images carry —
// and MPIArgs reads its counts, 0 outside it.
func TestMPICallsTable(t *testing.T) {
	if SysMPIInit != 32 || SysMPICommDup != 54 || len(MPICalls) != 23 {
		t.Fatalf("MPI syscalls span %d..%d in %d entries; want 32..54 in 23", SysMPIInit, SysMPICommDup, len(MPICalls))
	}
	names, most := map[string]bool{}, 0
	for i, c := range MPICalls {
		if c.Num != SysMPIInit+int32(i) {
			t.Errorf("entry %d (%s) has number %d, want %d", i, c.Name, c.Num, SysMPIInit+i)
		}
		if names[c.Name] || !strings.HasPrefix(c.Name, "MPI_") {
			t.Errorf("entry %d: name %q is a duplicate or not an MPI call", i, c.Name)
		}
		names[c.Name] = true
		if MPIArgs(c.Num) != c.Args {
			t.Errorf("MPIArgs(%d) = %d, want %d", c.Num, MPIArgs(c.Num), c.Args)
		}
		most = max(most, c.Args)
	}
	if most != MaxMPIArgs {
		t.Errorf("MaxMPIArgs = %d, but the table's largest count is %d", MaxMPIArgs, most)
	}
	for _, num := range []int32{-1, 0, SysExit, SysClock, SysMPIInit - 1, SysMPICommDup + 1} {
		if MPIArgs(num) != 0 {
			t.Errorf("MPIArgs(%d) = %d outside the table, want 0", num, MPIArgs(num))
		}
	}
}
