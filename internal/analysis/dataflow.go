package analysis

import (
	"fmt"
	"sort"

	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// The dataflow pass answers, for every reachable instruction boundary
// and register, the question the liveness pass only answers with a bit:
// *where* does the value flow?  It computes, per (pc, register), the set
// of first uses — the instructions (and operand slots within them) a
// corrupted register value can reach before being overwritten.  Two
// injection sites whose corrupted bit provably flows into the same first
// uses are equivalent for fault-sensitivity purposes; a site with no
// first use at all is provably benign.  Campaigns sample register faults
// uniformly, as in the paper, so the sets feed only the cross-check below.
//
// The pass reuses the CFG and the interprocedural call summaries the
// liveness pass computed (mayUse/mustDef/retLive), so the two analyses
// agree by construction: a register is live at pc exactly when its
// first-use set at pc is nonempty.  ComputeDataflow cross-checks this
// invariant and reports any disagreement as a "dataflow" finding — it
// indicates a bug in one of the two passes, never in the program.

// UseSlot identifies where within its first-use instruction a corrupted
// value enters: one of the structural operand slots, or one of the
// summarized interprocedural channels.
type UseSlot uint8

const (
	// SlotRa/SlotRb/SlotRc: the instruction reads the register through
	// the named encoding slot (base/index/store-source).
	SlotRa UseSlot = iota
	SlotRb
	SlotRc
	// SlotSP: the implicit stack-pointer read of push/pop/call/ret.
	SlotSP
	// SlotFlags: a conditional branch (or fxam) reads the flags word.
	SlotFlags
	// SlotCall: a callee (or, for indirect calls, any function) may read
	// the register on entry; the use site is the call instruction.
	SlotCall
	// SlotRet: the register is live in the caller after this return; the
	// value escapes the function through the return.
	SlotRet
	// SlotSys: the kernel reads the register as a syscall argument.
	SlotSys
)

var slotNames = [...]string{"ra", "rb", "rc", "sp", "flags", "call", "ret", "sys"}

func (s UseSlot) String() string {
	if int(s) < len(slotNames) {
		return slotNames[s]
	}
	return "slot?"
}

// UseRef is one first-use site: the instruction address and the operand
// slot the corrupted value enters through.
type UseRef struct {
	Addr uint32
	Slot UseSlot
}

func (u UseRef) String() string { return fmt.Sprintf("0x%08x/%s", u.Addr, u.Slot) }

// packRef encodes a UseRef for cheap sorted-set operations.
func packRef(addr uint32, slot UseSlot) uint64 { return uint64(addr)<<8 | uint64(slot) }

func unpackRef(p uint64) UseRef { return UseRef{Addr: uint32(p >> 8), Slot: UseSlot(p & 0xFF)} }

// nTrackedRegs is the per-instruction register dimension of the
// dataflow: the eight GPRs plus the flags word (index FlagsBit).
const nTrackedRegs = isa.NumGPR + 1

// Dataflow holds the first-use sets for a whole program.
type Dataflow struct {
	Prog *Program
	Live *Liveness

	// Findings reports liveness/dataflow disagreements (analyzer bugs)
	// discovered by the cross-check.
	Findings []Finding

	// firstUse maps each reachable instruction address to the per-register
	// sorted first-use sets (packed UseRefs).  A nil/empty set proves the
	// register's value is dead at that point.
	firstUse map[uint32]*[nTrackedRegs][]uint64
}

// ComputeDataflow runs the first-use dataflow over an analyzed program
// with its liveness results, then cross-checks the two against each
// other.
func ComputeDataflow(prog *Program, live *Liveness) *Dataflow {
	d := &Dataflow{
		Prog:     prog,
		Live:     live,
		firstUse: make(map[uint32]*[nTrackedRegs][]uint64),
	}
	for _, f := range prog.Funcs {
		fl := live.funcs[f.Sym.Name]
		if fl == nil {
			continue
		}
		var sets [nTrackedRegs][][]uint64
		for reg := 0; reg < nTrackedRegs; reg++ {
			sets[reg] = d.flowReg(fl, reg)
		}
		for i := range f.Instrs {
			if !f.reach[i] {
				continue
			}
			entry := new([nTrackedRegs][]uint64)
			for reg := 0; reg < nTrackedRegs; reg++ {
				entry[reg] = sets[reg][i]
			}
			d.firstUse[f.Addr(i)] = entry
		}
	}
	d.crossCheck()
	return d
}

// flowReg runs the backward first-use fixpoint for one register over one
// function, mirroring the liveness pass's useDef decomposition exactly
// (same call summaries, same return liveness) so that set-emptiness and
// liveness coincide.
func (d *Dataflow) flowReg(fl *funcLive, reg int) [][]uint64 {
	f := fl.f
	first := make([][]uint64, len(f.Instrs))
	if len(f.Blocks) == 0 {
		return first
	}
	blockIn := make([][]uint64, len(f.Blocks))
	for changed := true; changed; {
		changed = false
		for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
			b := &f.Blocks[bi]
			var out []uint64
			for _, s := range b.Succs {
				out = unionSets(out, blockIn[s])
			}
			for i := b.End - 1; i >= b.Start; i-- {
				sites, def := d.sitesOf(f, i, reg, fl.retLive)
				switch {
				case len(sites) > 0:
					// The instruction reads the register: the corrupted
					// value flows into it here, whatever happens after.
					out = sites
				case def:
					// Overwritten before any use on this path.
					out = nil
				}
				first[i] = out
			}
			if !setsEqual(blockIn[bi], out) {
				blockIn[bi] = out
				changed = true
			}
		}
	}
	return first
}

// sitesOf returns the use sites and the def verdict of instruction i for
// register reg (FlagsBit for flags), the slot-resolved counterpart of
// Liveness.useDef — the case split must stay in lockstep with it.
func (d *Dataflow) sitesOf(f *FuncCFG, i, reg int, exitLive RegMask) (sites []uint64, def bool) {
	in := f.Instrs[i]
	addr := f.Addr(i)
	rb := regBit(reg)
	add := func(slot UseSlot) { sites = append(sites, packRef(addr, slot)) }
	switch {
	case in.Op == isa.OpCall:
		use := regBit(isa.SP)
		var defMask RegMask
		if g := d.Live.calleeOf(in); g != nil {
			use |= g.mayUse
			defMask = g.mustDef
		} else {
			use = maskAll
		}
		if use&rb != 0 {
			if reg == isa.SP {
				add(SlotSP)
			} else {
				add(SlotCall)
			}
		}
		return sites, defMask&rb != 0
	case in.Op == isa.OpCallr:
		if reg == isa.SP {
			add(SlotSP)
		} else {
			add(SlotCall)
		}
		return sites, false
	case in.Op == isa.OpRet:
		if reg == isa.SP {
			add(SlotSP)
		} else if exitLive&rb != 0 {
			add(SlotRet)
		}
		return sites, false
	case isSysExit(in):
		if reg == 0 {
			add(SlotSys)
		}
		return sites, false
	case in.Op.IsSyscall():
		if reg >= 0 && reg <= 3 {
			add(SlotSys)
		}
		return sites, false
	}
	if reg == FlagsBit {
		if in.Op.ReadsFlags() {
			add(SlotFlags)
		}
		return sites, in.Op.WritesFlags()
	}
	for _, o := range in.Op.Reads() {
		switch o {
		case isa.OperandRa:
			if int(in.Ra) == reg {
				add(SlotRa)
			}
		case isa.OperandRb:
			if int(in.Rb) == reg {
				add(SlotRb)
			}
		case isa.OperandRc:
			if int(in.Rc()) == reg {
				add(SlotRc)
			}
		case isa.OperandSP:
			if reg == isa.SP {
				add(SlotSP)
			}
		}
	}
	sortSet(sites)
	for _, r := range in.DstGPRs() {
		if r == reg {
			def = true
		}
	}
	return sites, def
}

// crossCheck verifies the liveness/dataflow agreement invariant: a
// register is live at pc iff its first-use set is nonempty.  Any
// violation is an analyzer bug and becomes a "dataflow" finding.
func (d *Dataflow) crossCheck() {
	for _, f := range d.Prog.Funcs {
		for i := range f.Instrs {
			if !f.reach[i] {
				continue
			}
			pc := f.Addr(i)
			mask, ok := d.Live.LiveAt(pc)
			entry := d.firstUse[pc]
			if !ok || entry == nil {
				continue
			}
			m := RegMask(mask)
			for reg := 0; reg < nTrackedRegs; reg++ {
				live := m&regBit(reg) != 0
				if flows := len(entry[reg]) > 0; flows != live {
					name := "flags"
					if reg < isa.NumGPR {
						name = isa.GPRName(reg)
					}
					d.Findings = append(d.Findings, Finding{
						Pass: "dataflow", Func: f.Sym.Name, Addr: pc,
						Msg: fmt.Sprintf("%s: liveness says live=%v but first-use set has %d entries — the passes disagree",
							name, live, len(entry[reg])),
					})
				}
			}
		}
	}
}

func sortSet(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// unionSets merges two sorted packed-ref sets into a fresh sorted set.
func unionSets(a, b []uint64) []uint64 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func setsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// StackSlotInfo summarizes one reachable user function's fp-relative
// local slots: which byte offsets are stored and which of those are
// provably dead (stored but never loaded back, with no way for the
// address to escape).  A fault in a dead slot byte cannot manifest.
type StackSlotInfo struct {
	Func string
	// WrittenBytes counts distinct fp-relative local bytes the function
	// stores; DeadBytes the subset never loaded back.
	WrittenBytes, DeadBytes int
	// DeadOffsets lists the dead bytes' fp-relative offsets, sorted.
	DeadOffsets []int32
	// FPEscapes: the frame pointer's value flows somewhere other than a
	// local access (address arithmetic, a store of fp itself beyond the
	// prologue save) — all dead-slot claims are withdrawn.
	FPEscapes bool
	// Indexed: some frame access uses a runtime index or goes through
	// the stack pointer, so offsets cannot be resolved statically — all
	// dead-slot claims are withdrawn.
	Indexed bool
}

// StackSlots runs the dead-store analysis over every reachable user
// function, in address order.  The claims are deliberately conservative:
// any indexed access, sp-relative memory access, or escape of the frame
// pointer's value withdraws every claim for that function.
func (d *Dataflow) StackSlots() []StackSlotInfo {
	var out []StackSlotInfo
	for _, f := range d.Prog.Funcs {
		if !f.Reachable || f.Sym.Owner != image.OwnerUser {
			continue
		}
		out = append(out, d.stackSlotsOf(f))
	}
	return out
}

func (d *Dataflow) stackSlotsOf(f *FuncCFG) StackSlotInfo {
	info := StackSlotInfo{Func: f.Sym.Name}
	written := make(map[int32]bool)
	read := make(map[int32]bool)
	mark := func(m map[int32]bool, off int32, size int) {
		for b := 0; b < size; b++ {
			m[off+int32(b)] = true
		}
	}
	for i, in := range f.Instrs {
		if !f.reach[i] {
			continue
		}
		if in.Op.IsMemForm() {
			// Any sp-relative or runtime-indexed frame access defeats the
			// static offset resolution.
			if in.Ra == isa.SP || in.Rb == isa.SP {
				info.Indexed = true
			}
			if in.Ra == isa.FP && in.Rb != isa.RegNone {
				info.Indexed = true
			}
			if in.Ra == isa.FP && in.Rb == isa.RegNone && in.Imm < 0 {
				size := memAccessBytes(in.Op)
				if in.Op.IsLoad() {
					mark(read, in.Imm, size)
				}
				if in.Op.IsStore() {
					mark(written, in.Imm, size)
				}
			}
		}
		// Escape analysis: every read of fp outside the sanctioned
		// patterns (frame-base addressing, the prologue save, the
		// epilogue stack restore) lets the frame address flow into
		// arithmetic or memory, where a load could alias any slot.
		for _, o := range in.Op.Reads() {
			switch o {
			case isa.OperandRa:
				if in.Ra != isa.FP {
					continue
				}
				switch {
				case in.Op.IsMemForm():
					// frame-base addressing
				case in.Op == isa.OpPush:
					// prologue "push fp"
				case in.Op == isa.OpMovr && int(in.Rd) == isa.SP:
					// epilogue "movr sp, fp"
				default:
					info.FPEscapes = true
				}
			case isa.OperandRb:
				if in.Rb == isa.FP {
					info.FPEscapes = true // fp as runtime index
				}
			case isa.OperandRc:
				if in.Rc() == isa.FP {
					info.FPEscapes = true // fp's value stored to memory
				}
			}
		}
	}
	info.WrittenBytes = len(written)
	if info.FPEscapes || info.Indexed {
		return info
	}
	for off := range written {
		if !read[off] {
			info.DeadOffsets = append(info.DeadOffsets, off)
		}
	}
	sort.Slice(info.DeadOffsets, func(i, j int) bool { return info.DeadOffsets[i] < info.DeadOffsets[j] })
	info.DeadBytes = len(info.DeadOffsets)
	return info
}

// memAccessBytes is the access width of a memory-form opcode.
func memAccessBytes(op isa.Op) int {
	switch op {
	case isa.OpLdb, isa.OpStb:
		return 1
	case isa.OpFld, isa.OpFst, isa.OpFstp:
		return 8
	default:
		return 4
	}
}
