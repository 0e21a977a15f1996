// Package isa defines the instruction-set architecture of the simulated
// 32-bit machine on which guest MPI applications execute.
//
// The design deliberately mirrors the Intel x86-32 environment the paper
// targeted: a small file of general-purpose registers (so most registers
// hold live data at any instant — the root cause of the paper's high
// integer-register error rates), a frame-pointer calling convention (so the
// fault injector can walk stack frames exactly as §3.2 describes), and an
// x87-style floating-point register *stack* with a tag word (so tag-word bit
// flips can turn valid numbers into NaNs, the mechanism §6.1.1 analyses).
//
// Instructions use a fixed 8-byte encoding: one opcode byte, three register
// operand bytes and a 32-bit little-endian immediate.  A fixed encoding
// keeps the interpreter fast while still giving text-segment bit flips
// realistic consequences: a flip in the opcode byte usually produces an
// illegal instruction, a flip in a register byte can select a nonexistent
// register, and a flip in the immediate silently changes addresses and
// constants.
package isa

// General-purpose register indices.  R6 and R7 double as the frame and
// stack pointers, in the spirit of x86's EBP/ESP.
const (
	R0 = 0 // return value / first syscall argument
	R1 = 1
	R2 = 2
	R3 = 3
	R4 = 4
	R5 = 5
	FP = 6 // frame pointer (EBP analogue)
	SP = 7 // stack pointer (ESP analogue)

	// NumGPR is the number of general-purpose registers.
	NumGPR = 8

	// RegNone marks an absent index register in load/store encodings.
	RegNone = 0xFF
)

// Floating-point environment sizes, mirroring the x87 FPU.
const (
	// NumFPReg is the number of physical floating-point stack slots.
	NumFPReg = 8

	// Tag word values, two bits per physical FP register (x87 semantics).
	TagValid   = 0 // slot holds an ordinary finite nonzero number
	TagZero    = 1 // slot holds ±0
	TagSpecial = 2 // slot holds NaN, ±Inf or a denormal
	TagEmpty   = 3 // slot is empty (reads yield the x87 "indefinite" NaN)
)

// GPRName returns the assembler name of a general-purpose register.
func GPRName(r int) string {
	switch r {
	case R0:
		return "r0"
	case R1:
		return "r1"
	case R2:
		return "r2"
	case R3:
		return "r3"
	case R4:
		return "r4"
	case R5:
		return "r5"
	case FP:
		return "fp"
	case SP:
		return "sp"
	default:
		return "r?"
	}
}

// Flag bits of the condition-flags register.
const (
	FlagZ  = 1 << 0 // zero / equal
	FlagLT = 1 << 1 // signed less-than
	FlagUL = 1 << 2 // unsigned less-than
	FlagUN = 1 << 3 // unordered (a floating-point comparand was NaN)
)

// Special floating-point environment register identifiers, used by the
// fault injector to enumerate targets (the paper injects into CWD, SWD,
// TWD, FIP, FCS, FOO and FOS alongside the eight data registers).
const (
	FPEnvCWD = iota // control word
	FPEnvSWD        // status word (bits 11-13 hold the stack top)
	FPEnvTWD        // tag word
	FPEnvFIP        // last instruction pointer
	FPEnvFCS        // last instruction "segment" (decorative, as on x87)
	FPEnvFOO        // last operand offset
	FPEnvFOS        // last operand "segment"
	NumFPEnv
)

// Write-only bits: no instruction reads them back, so a flip in one changes
// nothing a program does.  Branches test only the low FlagsReadableBits
// flag bits (Z/LT/UL/UN).  Of the FP environment, only TWD and SWD's stack
// top (SWDTopMask, bits 11-13) are read; CWD, the rest of SWD, FIP, FCS, FOO
// and FOS are written and never read.
const (
	FlagsReadableBits = 4
	SWDTopMask        = 7 << 11
)
