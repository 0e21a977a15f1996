package isa

// Per-opcode operand effects: which architectural resources each opcode
// reads and writes, and what it does to the FP register stack.  This is
// the machine-readable counterpart of the interpreter in internal/vm —
// the static analyzer (internal/analysis) derives its def-use, liveness
// and stack-depth facts from this table, and TestEffectsComplete keeps
// it in lockstep with the opcode list.

// Operand identifies one architectural resource an opcode can read or
// write, at the granularity the fixed 8-byte encoding exposes.
type Operand uint8

const (
	// OperandRd is the destination-register slot (encoding byte 1).
	OperandRd Operand = iota
	// OperandRa is the first source / base-register slot (byte 2).
	OperandRa
	// OperandRb is the second source / index-register slot (byte 3).
	OperandRb
	// OperandRc is the store-source register.  The encoding carries only
	// three register bytes, so the store forms, which need (base, index,
	// source), transmit the source in the Rd slot; Instr.Rc reads it back.
	OperandRc
	// OperandFlags is the condition-flags register.
	OperandFlags
	// OperandSP is the stack pointer implicitly moved by push/pop/call/ret.
	OperandSP
	// OperandMem is data memory.
	OperandMem
	// OperandFP is the floating-point register stack.
	OperandFP

	numOperands
)

var operandNames = [numOperands]string{"rd", "ra", "rb", "rc", "flags", "sp", "mem", "fp"}

func (o Operand) String() string {
	if int(o) < len(operandNames) {
		return operandNames[o]
	}
	return "operand?"
}

// opEffects records the architectural effects of one opcode.
type opEffects struct {
	defined bool
	reads   []Operand
	writes  []Operand
	fpPop   int8 // FP stack slots popped
	fpPush  int8 // FP stack slots pushed
	fpMin   int8 // minimum FP stack depth required before executing
	fpImm   bool // addresses st(imm): real depth requirement is imm+1
	syscall bool // OpSys: resource usage depends on the syscall number
}

// effTable mirrors the interpreter in internal/vm/exec.go.  Conventions:
//
//   - Call/Callr/Ret/Push/Pop move SP and touch the stack, so they read
//     SP, write SP, and read or write memory.
//   - Cmp/Cmpi/Fcomp overwrite the flags wholesale (pure write); Fxam
//     updates only FlagZ and FlagUN, preserving the rest, so it both
//     reads and writes flags.
//   - OpSys is marked syscall: the kernel reads r0-r3 (argument count
//     depends on the syscall number) and writes the result to r0.
//     Analyses must treat it conservatively; see Instr-level helpers.
var effTable = [opMax]opEffects{
	OpInvalid: {defined: true}, // raises SIGILL; no architectural effect
	OpNop:     {defined: true},
	OpMovi:    {defined: true, writes: []Operand{OperandRd}},
	OpMovr:    {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandRd}},
	OpAdd:     {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpSub:     {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpMul:     {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpDivs:    {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpRems:    {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpAnd:     {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpOr:      {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpXor:     {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpShl:     {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpShr:     {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpSar:     {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandRd}},
	OpNeg:     {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandRd}},
	OpAddi:    {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandRd}},
	OpMuli:    {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandRd}},
	OpAndi:    {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandRd}},
	OpOri:     {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandRd}},
	OpXori:    {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandRd}},
	OpShli:    {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandRd}},
	OpShri:    {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandRd}},
	OpSari:    {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandRd}},
	OpCmp:     {defined: true, reads: []Operand{OperandRa, OperandRb}, writes: []Operand{OperandFlags}},
	OpCmpi:    {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandFlags}},
	OpJmp:     {defined: true},
	OpBeq:     {defined: true, reads: []Operand{OperandFlags}},
	OpBne:     {defined: true, reads: []Operand{OperandFlags}},
	OpBlt:     {defined: true, reads: []Operand{OperandFlags}},
	OpBge:     {defined: true, reads: []Operand{OperandFlags}},
	OpBle:     {defined: true, reads: []Operand{OperandFlags}},
	OpBgt:     {defined: true, reads: []Operand{OperandFlags}},
	OpBltu:    {defined: true, reads: []Operand{OperandFlags}},
	OpBgeu:    {defined: true, reads: []Operand{OperandFlags}},
	OpBun:     {defined: true, reads: []Operand{OperandFlags}},
	OpCall:    {defined: true, reads: []Operand{OperandSP}, writes: []Operand{OperandSP, OperandMem}},
	OpCallr:   {defined: true, reads: []Operand{OperandRa, OperandSP}, writes: []Operand{OperandSP, OperandMem}},
	OpRet:     {defined: true, reads: []Operand{OperandSP, OperandMem}, writes: []Operand{OperandSP}},
	OpPush:    {defined: true, reads: []Operand{OperandRa, OperandSP}, writes: []Operand{OperandSP, OperandMem}},
	OpPop:     {defined: true, reads: []Operand{OperandSP, OperandMem}, writes: []Operand{OperandRd, OperandSP}},
	OpLd:      {defined: true, reads: []Operand{OperandRa, OperandRb, OperandMem}, writes: []Operand{OperandRd}},
	OpSt:      {defined: true, reads: []Operand{OperandRa, OperandRb, OperandRc}, writes: []Operand{OperandMem}},
	OpLdb:     {defined: true, reads: []Operand{OperandRa, OperandRb, OperandMem}, writes: []Operand{OperandRd}},
	OpStb:     {defined: true, reads: []Operand{OperandRa, OperandRb, OperandRc}, writes: []Operand{OperandMem}},
	OpFld:     {defined: true, reads: []Operand{OperandRa, OperandRb, OperandMem}, writes: []Operand{OperandFP}, fpPush: 1},
	OpFldz:    {defined: true, writes: []Operand{OperandFP}, fpPush: 1},
	OpFld1:    {defined: true, writes: []Operand{OperandFP}, fpPush: 1},
	OpFldst:   {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandFP}, fpPush: 1, fpMin: 1, fpImm: true},
	OpFst:     {defined: true, reads: []Operand{OperandRa, OperandRb, OperandFP}, writes: []Operand{OperandMem}, fpMin: 1},
	OpFstp:    {defined: true, reads: []Operand{OperandRa, OperandRb, OperandFP}, writes: []Operand{OperandMem, OperandFP}, fpPop: 1, fpMin: 1},
	OpFaddp:   {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandFP}, fpPop: 1, fpMin: 2},
	OpFsubp:   {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandFP}, fpPop: 1, fpMin: 2},
	OpFmulp:   {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandFP}, fpPop: 1, fpMin: 2},
	OpFdivp:   {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandFP}, fpPop: 1, fpMin: 2},
	OpFchs:    {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandFP}, fpMin: 1},
	OpFabs:    {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandFP}, fpMin: 1},
	OpFsqrt:   {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandFP}, fpMin: 1},
	OpFxch:    {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandFP}, fpMin: 1, fpImm: true},
	OpFcomp:   {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandFlags, OperandFP}, fpPop: 2, fpMin: 2},
	OpFxam:    {defined: true, reads: []Operand{OperandFP, OperandFlags}, writes: []Operand{OperandFlags}, fpMin: 1},
	OpFild:    {defined: true, reads: []Operand{OperandRa}, writes: []Operand{OperandFP}, fpPush: 1},
	OpFist:    {defined: true, reads: []Operand{OperandFP}, writes: []Operand{OperandRd, OperandFP}, fpPop: 1, fpMin: 1},
	OpSys:     {defined: true, syscall: true},
}

func (op Op) effects() opEffects {
	if int(op) < len(effTable) {
		return effTable[op]
	}
	return opEffects{}
}

// Reads returns the architectural resources op reads, as operand slots.
// The list is a fresh copy; callers may keep or modify it.
func (op Op) Reads() []Operand {
	return append([]Operand(nil), op.effects().reads...)
}

// Writes returns the architectural resources op writes.
func (op Op) Writes() []Operand {
	return append([]Operand(nil), op.effects().writes...)
}

func (op Op) readsOp(o Operand) bool {
	for _, r := range op.effects().reads {
		if r == o {
			return true
		}
	}
	return false
}

func (op Op) writesOp(o Operand) bool {
	for _, w := range op.effects().writes {
		if w == o {
			return true
		}
	}
	return false
}

// IsStore reports whether op writes data memory (stores, push, call).
func (op Op) IsStore() bool { return op.writesOp(OperandMem) }

// IsLoad reports whether op reads data memory (loads, pop, ret).
func (op Op) IsLoad() bool { return op.readsOp(OperandMem) }

// ReadsFlags reports whether op's behavior depends on the flags register.
func (op Op) ReadsFlags() bool { return op.readsOp(OperandFlags) }

// WritesFlags reports whether op modifies the flags register.  Note that
// OpFxam updates only FlagZ/FlagUN (it also reads flags); Cmp/Cmpi/Fcomp
// replace the register wholesale.
func (op Op) WritesFlags() bool { return op.writesOp(OperandFlags) }

// IsSyscall reports whether op is the system-call instruction, whose
// register usage depends on the syscall number: the kernel reads up to
// r0-r3 and writes the result to r0.  Analyses without a per-syscall
// model must assume r0-r3 read and nothing usefully defined.
func (op Op) IsSyscall() bool { return op.effects().syscall }

// HasEffects reports whether the effects table defines op.  Every opcode
// below opMax is defined (TestEffectsComplete enforces it); the method
// exists so that test and future extensions can check explicitly.
func (op Op) HasEffects() bool { return op.effects().defined }

// SrcGPRs returns the general-purpose registers in reads — including
// memory-form base/index registers, the store source (Rc) and the
// implicit stack pointer — as register numbers.  Operand bytes equal to
// RegNone (absent index/base) or outside the register file are skipped;
// use OperandsValid to detect the latter.  OpSys's r0-r3 syscall
// arguments are not structural operands and are not included.
func (in Instr) SrcGPRs() []int {
	var regs []int
	add := func(b uint8) {
		if int(b) < NumGPR {
			for _, r := range regs {
				if r == int(b) {
					return
				}
			}
			regs = append(regs, int(b))
		}
	}
	for _, o := range in.Op.effects().reads {
		switch o {
		case OperandRa:
			add(in.Ra)
		case OperandRb:
			add(in.Rb)
		case OperandRc:
			add(in.Rc())
		case OperandSP:
			add(SP)
		}
	}
	return regs
}

// DstGPRs returns the general-purpose registers in writes, as register
// numbers (the Rd slot plus the implicit stack pointer where moved).
func (in Instr) DstGPRs() []int {
	var regs []int
	add := func(b uint8) {
		if int(b) < NumGPR {
			for _, r := range regs {
				if r == int(b) {
					return
				}
			}
			regs = append(regs, int(b))
		}
	}
	for _, o := range in.Op.effects().writes {
		switch o {
		case OperandRd:
			add(in.Rd)
		case OperandSP:
			add(SP)
		}
	}
	return regs
}

// OperandsValid reports whether every register byte the instruction
// actually uses names an existing register, mirroring the interpreter's
// execution-time checks: a used slot outside the register file raises
// SIGILL, except that memory-form base/index bytes may be RegNone.
func (in Instr) OperandsValid() bool {
	if !in.Op.Valid() {
		return false
	}
	eff := in.Op.effects()
	memForm := in.Op.IsMemForm()
	check := func(b uint8, noneOK bool) bool {
		if noneOK && b == RegNone {
			return true
		}
		return int(b) < NumGPR
	}
	for _, lists := range [2][]Operand{eff.reads, eff.writes} {
		for _, o := range lists {
			switch o {
			case OperandRd:
				if !check(in.Rd, false) {
					return false
				}
			case OperandRa:
				if !check(in.Ra, memForm) {
					return false
				}
			case OperandRb:
				if !check(in.Rb, memForm) {
					return false
				}
			case OperandRc:
				if !check(in.Rc(), false) {
					return false
				}
			}
		}
	}
	return true
}

// FPEffect returns the instruction's FP-stack behavior: min is the
// stack depth required before execution (Imm-adjusted for fldst/fxch,
// which address st(imm)), and delta is the net depth change.  A
// negative or absurd Imm yields a min no machine state can satisfy, so
// depth checkers flag it naturally.
func (in Instr) FPEffect() (min, delta int) {
	eff := in.Op.effects()
	min = int(eff.fpMin)
	if eff.fpImm {
		if in.Imm < 0 || in.Imm >= int32(NumFPReg) {
			min = NumFPReg + 1
		} else if need := int(in.Imm) + 1; need > min {
			min = need
		}
	}
	return min, int(eff.fpPush) - int(eff.fpPop)
}
