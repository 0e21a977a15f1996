// Package abi pins down the guest/host binary interface: system-call
// numbers, MPI handle constants, datatypes and reduction operators.  The
// guest MPI library (written in the assembler DSL) and the host MPI runtime
// both import this package, so the two sides cannot drift apart: MPICalls
// is the one statement of the MPI calling convention, the table the guest
// stubs are emitted from and the host decoder reads argument counts from.
//
// System-call convention: the SYS instruction carries the call number in
// its immediate.  Arguments 1-4 travel in r0-r3; arguments beyond the
// fourth are pushed onto the guest stack (last argument pushed first, so
// the fifth argument sits at [sp], the sixth at [sp+4], ...).  The result
// is returned in r0.
package abi

// System-call numbers.
const (
	SysExit        = 1  // exit(code)          — normal termination
	SysAbort       = 2  // abort(code)         — application-detected failure
	SysWrite       = 3  // write(fd, addr, len)
	SysOpen        = 4  // open(nameAddr, nameLen) -> fd  (named output file)
	SysWriteInt    = 5  // writeint(fd, value)               — decimal text
	SysWriteF64    = 6  // writef64(fd, addr, precision)     — fixed-point text
	SysWriteF64Arr = 7  // writef64arr(fd, addr, count, precision)
	SysWriteBin    = 8  // writebin(fd, addr, len)        — raw bytes (binary output mode)
	SysMalloc      = 9  // malloc(size) -> addr, 0 on exhaustion
	SysFree        = 10 // free(addr)
	SysClock       = 11 // clock() -> low 32 bits of retired-instruction count
)

// MPI system-call numbers, in MPICalls order.
const (
	SysMPIInit = 32 + iota
	SysMPIFinalize
	SysMPICommRank
	SysMPICommSize
	SysMPISend
	SysMPIRecv
	SysMPIBarrier
	SysMPIBcast
	SysMPIReduce
	SysMPIAllreduce
	SysMPIGather
	SysMPIAllgather
	SysMPIScatter
	SysMPIAlltoall
	SysMPIErrhandlerSet
	SysMPIWtime
	SysMPIIsend
	SysMPIIrecv
	SysMPIWait
	SysMPIWaitall
	SysMPISendrecv
	SysMPICommSplit
	SysMPICommDup
)

// MPICall is one entry point of the guest MPI library: its C name, the
// syscall number its stub issues and how many arguments it passes.
type MPICall struct {
	Name string
	Num  int32
	Args int
}

// MPICalls is the MPI calling convention, stated once: every MPI call in
// syscall order.  guest.AddLibMPI emits one stub per entry, and the host
// decoder fetches each call's arguments by the same count (MPIArgs).
var MPICalls = [...]MPICall{
	{"MPI_Init", SysMPIInit, 0},
	{"MPI_Finalize", SysMPIFinalize, 0},
	{"MPI_Comm_rank", SysMPICommRank, 1},           // (comm) -> rank
	{"MPI_Comm_size", SysMPICommSize, 1},           // (comm) -> size
	{"MPI_Send", SysMPISend, 6},                    // (buf, count, dtype, dest, tag, comm)
	{"MPI_Recv", SysMPIRecv, 7},                    // (buf, count, dtype, source, tag, comm, statusAddr)
	{"MPI_Barrier", SysMPIBarrier, 1},              // (comm)
	{"MPI_Bcast", SysMPIBcast, 5},                  // (buf, count, dtype, root, comm)
	{"MPI_Reduce", SysMPIReduce, 7},                // (sbuf, rbuf, count, dtype, op, root, comm)
	{"MPI_Allreduce", SysMPIAllreduce, 6},          // (sbuf, rbuf, count, dtype, op, comm)
	{"MPI_Gather", SysMPIGather, 6},                // (sbuf, count, dtype, rbuf, root, comm)
	{"MPI_Allgather", SysMPIAllgather, 5},          // (sbuf, count, dtype, rbuf, comm)
	{"MPI_Scatter", SysMPIScatter, 6},              // (sbuf, count, dtype, rbuf, root, comm)
	{"MPI_Alltoall", SysMPIAlltoall, 5},            // (sbuf, count, dtype, rbuf, comm)
	{"MPI_Errhandler_set", SysMPIErrhandlerSet, 2}, // (comm, handlerAddr)
	{"MPI_Wtime", SysMPIWtime, 1},                  // (resultAddr) — stores f64 seconds of virtual time
	{"MPI_Isend", SysMPIIsend, 7},                  // (buf, count, dtype, dest, tag, comm, reqAddr)
	{"MPI_Irecv", SysMPIIrecv, 7},                  // (buf, count, dtype, source, tag, comm, reqAddr)
	{"MPI_Wait", SysMPIWait, 2},                    // (reqAddr, statusAddr)
	{"MPI_Waitall", SysMPIWaitall, 3},              // (count, reqArrayAddr, statusArrayAddr)
	{"MPI_Sendrecv", SysMPISendrecv, 11},           // (sbuf, scount, dtype, dest, stag, rbuf, rcount, source, rtag, comm, statusAddr)
	{"MPI_Comm_split", SysMPICommSplit, 4},         // (comm, color, key, newcommAddr)
	{"MPI_Comm_dup", SysMPICommDup, 2},             // (comm, newcommAddr)
}

// MaxMPIArgs is the largest argument count in MPICalls (MPI_Sendrecv's).
const MaxMPIArgs = 11

// MPIArgs returns how many arguments MPI call num passes, and 0 for a
// number outside MPICalls.
func MPIArgs(num int32) int {
	if i := num - SysMPIInit; i >= 0 && int(i) < len(MPICalls) {
		return MPICalls[i].Args
	}
	return 0
}

// Standard file descriptors.
const (
	FdStdout = 1
	FdStderr = 2
	// FdFileBase is the first descriptor handed out by SysOpen.
	FdFileBase = 3
)

// MPI communicator handles.
const (
	CommWorld = 91 // MPI_COMM_WORLD (arbitrary nonzero tag value, as in MPICH)
	CommSelf  = 92
)

// MPI datatypes.
const (
	DTInt32 = 0
	DTF64   = 1
	DTByte  = 2
)

// DTSize returns the size in bytes of a datatype, or 0 if invalid.
func DTSize(dt int32) uint32 {
	switch dt {
	case DTInt32:
		return 4
	case DTF64:
		return 8
	case DTByte:
		return 1
	default:
		return 0
	}
}

// MPI reduction operators.
const (
	OpSum = iota
	OpProd
	OpMin
	OpMax
	NumOps
)

// Wildcards, as in MPI 1.1.
const (
	AnySource = -1
	AnyTag    = -1
)

// MaxUserTag is the largest tag a user send/recv may carry (MPI_TAG_UB).
const MaxUserTag = 32767

// MPI error classes (subset of MPI 1.1).
const (
	ErrSuccess = 0
	ErrBuffer  = 1
	ErrCount   = 2
	ErrType    = 3
	ErrTag     = 4
	ErrComm    = 5
	ErrRank    = 6
	ErrOp      = 7
	ErrArg     = 12
	ErrOther   = 15
)

// ErrName returns the MPICH-style name of an error class.
func ErrName(code int32) string {
	switch code {
	case ErrSuccess:
		return "MPI_SUCCESS"
	case ErrBuffer:
		return "MPI_ERR_BUFFER"
	case ErrCount:
		return "MPI_ERR_COUNT"
	case ErrType:
		return "MPI_ERR_TYPE"
	case ErrTag:
		return "MPI_ERR_TAG"
	case ErrComm:
		return "MPI_ERR_COMM"
	case ErrRank:
		return "MPI_ERR_RANK"
	case ErrOp:
		return "MPI_ERR_OP"
	case ErrArg:
		return "MPI_ERR_ARG"
	default:
		return "MPI_ERR_OTHER"
	}
}

// Exit codes with harness-level meaning.
const (
	ExitOK = 0
	// ExitAppDetected is the code the guest runtime's abort() uses after an
	// application-level consistency check fails (assertion, NaN check,
	// checksum mismatch, bound check).
	ExitAppDetected = 86
)

// Heap chunk tags — the analogue of the paper's malloc-wrapper identifier
// distinguishing user allocations from MPI-library allocations.
const (
	ChunkUser = 0x55534552 // "USER"
	ChunkMPI  = 0x4D504921 // "MPI!"
)
