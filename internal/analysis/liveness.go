package analysis

import (
	"fmt"

	"mpifault/internal/isa"
)

// RegMask is a bitset over the trackable register context: bits 0-7 are
// the GPRs, bit FlagsBit the condition-flags register.  A set bit means
// "live": some execution continuing from this point may read the value
// before overwriting it.  The analysis overapproximates (anything it
// cannot prove dead stays live), so a clear bit is a guarantee.
type RegMask uint16

// FlagsBit is the RegMask bit index of the condition-flags register.
const FlagsBit = isa.NumGPR

const maskAllRegs RegMask = (1 << isa.NumGPR) - 1 // the eight GPRs
const maskAll RegMask = maskAllRegs | 1<<FlagsBit

func regBit(r int) RegMask { return 1 << RegMask(r) }

// Count returns the number of live registers in the mask (flags count
// as one).
func (m RegMask) Count() int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Has reports whether GPR r is live in the mask.
func (m RegMask) Has(r int) bool { return m&regBit(r) != 0 }

// HasFlags reports whether the flags register is live in the mask.
func (m RegMask) HasFlags() bool { return m&(1<<FlagsBit) != 0 }

func (m RegMask) String() string {
	s := ""
	for r := 0; r < isa.NumGPR; r++ {
		if m.Has(r) {
			if s != "" {
				s += ","
			}
			s += isa.GPRName(r)
		}
	}
	if m.HasFlags() {
		if s != "" {
			s += ","
		}
		s += "flags"
	}
	if s == "" {
		return "none"
	}
	return s
}

// funcLive is the per-function dataflow state.
type funcLive struct {
	f *FuncCFG

	// mayUse: registers whose entry value the function (or a callee) may
	// read.  mustDef: registers overwritten on every path to every
	// return (fp/sp excluded: the convention preserves them).  retLive:
	// registers live after the function returns, joined over call sites.
	mayUse, mustDef, retLive RegMask

	liveIn []RegMask // per instruction

	// FP-stack summary: fpNeed values must be on the stack at entry,
	// the depth rises at most fpRise above entry, and a return leaves
	// the depth shifted by fpDelta.  fpDepthIn records the relative
	// depth at each block entry (from the final forward walk).
	fpNeed, fpRise, fpDelta int
	fpDepthIn               []int
}

// Liveness holds the dataflow results for a whole program, plus the
// FP-stack depth findings discovered along the way.
type Liveness struct {
	Prog     *Program
	Findings []Finding

	funcs  map[string]*funcLive
	liveAt map[uint32]RegMask
}

// ComputeLiveness runs the register and FP-stack dataflow over an
// analyzed program: bottom-up function summaries (mayUse as a least
// fixpoint from "uses nothing", mustDef as a greatest fixpoint from
// "defines everything"), then a top-down return-liveness fixpoint joined
// over call sites, and finally per-instruction live-in sets.  Indirect
// calls degrade everything they can reach to fully-conservative.
func ComputeLiveness(prog *Program) *Liveness {
	l := &Liveness{
		Prog:   prog,
		funcs:  make(map[string]*funcLive, len(prog.Funcs)),
		liveAt: make(map[uint32]RegMask),
	}
	for _, f := range prog.Funcs {
		fl := &funcLive{f: f, mustDef: maskAll}
		if prog.hasCallr {
			fl.retLive = maskAll
		}
		l.funcs[f.Sym.Name] = fl
	}

	// Phase A: register summaries.
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			fl := l.funcs[f.Sym.Name]
			liveIn, _ := l.intra(fl, 0)
			entry := RegMask(0)
			if len(liveIn) > 0 {
				entry = liveIn[0]
			}
			mustDef := l.intraMustDef(fl)
			if entry != fl.mayUse || mustDef != fl.mustDef {
				fl.mayUse, fl.mustDef = entry, mustDef
				changed = true
			}
		}
	}

	// Phase B: return-liveness fixpoint and final live-in sets.
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			fl := l.funcs[f.Sym.Name]
			liveIn, callOuts := l.intra(fl, fl.retLive)
			fl.liveIn = liveIn
			for callee, out := range callOuts {
				g := l.funcs[callee]
				if g == nil {
					continue
				}
				if g.retLive|out != g.retLive {
					g.retLive |= out
					changed = true
				}
			}
		}
	}
	for _, f := range prog.Funcs {
		fl := l.funcs[f.Sym.Name]
		for i := range f.Instrs {
			if f.reach[i] {
				l.liveAt[f.Addr(i)] = fl.liveIn[i]
			}
		}
	}

	l.fpAnalysis()
	return l
}

// LiveAt returns the live register mask (bits 0-7 the GPRs, bit 8 the
// flags) at an instruction boundary; ok is false when pc is not a known,
// reachable instruction address.  ComputeEquivalence partitions from it.
func (l *Liveness) LiveAt(pc uint32) (uint16, bool) {
	m, ok := l.liveAt[pc]
	return uint16(m), ok
}

// FuncEntryUse returns the entry may-use mask of the named function.
func (l *Liveness) FuncEntryUse(name string) (RegMask, bool) {
	fl, ok := l.funcs[name]
	if !ok {
		return 0, false
	}
	return fl.mayUse, true
}

// useDef computes one instruction's use and def masks, consulting the
// callee summaries for direct calls.  Indirect calls and unresolvable
// call targets use everything and define nothing.
func (l *Liveness) useDef(in isa.Instr, exitLive RegMask) (use, def RegMask) {
	switch {
	case in.Op == isa.OpCall:
		use = regBit(isa.SP)
		if g := l.calleeOf(in); g != nil {
			use |= g.mayUse
			def = g.mustDef
		} else {
			use = maskAll
		}
		return use, def
	case in.Op == isa.OpCallr:
		return maskAll, 0
	case in.Op == isa.OpRet:
		return regBit(isa.SP) | exitLive, 0
	case isSysExit(in):
		return regBit(0), 0 // exit/abort read only the status in r0
	case in.Op.IsSyscall():
		// The kernel reads up to r0-r3 depending on the syscall number
		// and writes results through pointers or (sometimes) r0; with no
		// per-syscall model, defining nothing is the sound choice.
		return regBit(0) | regBit(1) | regBit(2) | regBit(3), 0
	}
	for _, r := range in.SrcGPRs() {
		use |= regBit(r)
	}
	for _, r := range in.DstGPRs() {
		def |= regBit(r)
	}
	if in.Op.ReadsFlags() {
		use |= 1 << FlagsBit
	}
	if in.Op.WritesFlags() {
		def |= 1 << FlagsBit
	}
	return use, def
}

func (l *Liveness) calleeOf(in isa.Instr) *funcLive {
	if g := l.Prog.funcAt(uint32(in.Imm)); g != nil {
		return l.funcs[g.Sym.Name]
	}
	return nil
}

// intra runs the backward liveness fixpoint over one function with the
// given liveness at returns.  It yields per-instruction live-in masks
// and, per callee, the union of live-out masks at its call sites.
func (l *Liveness) intra(fl *funcLive, exitLive RegMask) ([]RegMask, map[string]RegMask) {
	f := fl.f
	liveIn := make([]RegMask, len(f.Instrs))
	if len(f.Blocks) == 0 {
		return liveIn, nil
	}
	blockIn := make([]RegMask, len(f.Blocks))
	for changed := true; changed; {
		changed = false
		for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
			b := &f.Blocks[bi]
			var out RegMask
			for _, s := range b.Succs {
				out |= blockIn[s]
			}
			for i := b.End - 1; i >= b.Start; i-- {
				use, def := l.useDef(f.Instrs[i], exitLive)
				out = (out &^ def) | use
				liveIn[i] = out
			}
			if blockIn[bi] != out {
				blockIn[bi] = out
				changed = true
			}
		}
	}
	callOuts := make(map[string]RegMask)
	for bi := range f.Blocks {
		b := &f.Blocks[bi]
		if b.term != termCall || b.callee == "" {
			continue
		}
		var out RegMask
		for _, s := range b.Succs {
			out |= blockIn[s]
		}
		callOuts[b.callee] |= out
	}
	return liveIn, callOuts
}

// intraMustDef runs the forward must-define pass: which registers are
// overwritten on every path from entry to every return.
func (l *Liveness) intraMustDef(fl *funcLive) RegMask {
	f := fl.f
	if len(f.Blocks) == 0 {
		return 0
	}
	defIn := make([]RegMask, len(f.Blocks))
	seen := make([]bool, len(f.Blocks))
	for i := range defIn {
		defIn[i] = maskAll // top: refined by intersection at joins
	}
	defIn[0], seen[0] = 0, true
	atRet := maskAll
	sawRet := false
	for changed := true; changed; {
		changed = false
		for bi := range f.Blocks {
			if !seen[bi] {
				continue
			}
			b := &f.Blocks[bi]
			defs := defIn[bi]
			for i := b.Start; i < b.End; i++ {
				_, def := l.useDef(f.Instrs[i], 0)
				defs |= def
			}
			if b.term == termRet {
				if !sawRet || atRet&defs != atRet {
					atRet &= defs
					sawRet = true
					changed = true
				}
			}
			for _, s := range b.Succs {
				if !seen[s] {
					seen[s], defIn[s] = true, defs
					changed = true
				} else if defIn[s]&defs != defIn[s] {
					defIn[s] &= defs
					changed = true
				}
			}
		}
	}
	if !sawRet {
		return 0 // noreturn: callers never observe its defines
	}
	return atRet &^ (regBit(isa.FP) | regBit(isa.SP))
}

// fpAnalysis computes per-function FP-stack summaries bottom-up, then
// validates absolute entry depths top-down from the entry point.  A
// function that pops more values than it pushed ("over-pop") shows up as
// fpNeed > 0, flagged when no caller provides that depth.
func (l *Liveness) fpAnalysis() {
	for changed := true; changed; {
		changed = false
		for _, f := range l.Prog.Funcs {
			fl := l.funcs[f.Sym.Name]
			need, rise, delta, _, _ := l.fpIntra(fl, false)
			if need != fl.fpNeed || rise != fl.fpRise || delta != fl.fpDelta {
				fl.fpNeed, fl.fpRise, fl.fpDelta = need, rise, delta
				changed = true
			}
		}
	}
	for _, f := range l.Prog.Funcs {
		fl := l.funcs[f.Sym.Name]
		_, _, _, depthIn, findings := l.fpIntra(fl, true)
		fl.fpDepthIn = depthIn
		l.Findings = append(l.Findings, findings...)
	}

	// Absolute entry-depth intervals, walked over the call graph.  The
	// interval is clamped to [0, NumFPReg+1], so the widening terminates
	// even on recursive cycles.
	type interval struct{ lo, hi int }
	depths := make(map[string]interval)
	entry := l.Prog.funcAt(l.Prog.Image.Entry)
	if entry != nil {
		depths[entry.Sym.Name] = interval{0, 0}
	}
	clamp := func(d int) int {
		if d < 0 {
			return 0
		}
		if d > isa.NumFPReg+1 {
			return isa.NumFPReg + 1
		}
		return d
	}
	for changed := true; changed; {
		changed = false
		for _, f := range l.Prog.Funcs {
			iv, ok := depths[f.Sym.Name]
			if !ok {
				continue
			}
			fl := l.funcs[f.Sym.Name]
			for bi := range f.Blocks {
				b := &f.Blocks[bi]
				if b.term != termCall || b.callee == "" || !f.reach[b.Start] {
					continue
				}
				g := l.funcs[b.callee]
				if g == nil {
					continue
				}
				d := l.fpDepthAt(fl, bi)
				callee := interval{clamp(iv.lo + d), clamp(iv.hi + d)}
				if cur, ok := depths[b.callee]; ok {
					if cur.lo < callee.lo {
						callee.lo = cur.lo
					}
					if cur.hi > callee.hi {
						callee.hi = cur.hi
					}
					if callee == cur {
						continue
					}
				}
				depths[b.callee] = callee
				changed = true
			}
		}
	}
	for _, f := range l.Prog.Funcs {
		fl := l.funcs[f.Sym.Name]
		iv, known := depths[f.Sym.Name]
		if !known {
			iv = interval{0, 0} // never called: judge as if entered fresh
		}
		if iv.lo < fl.fpNeed {
			l.Findings = append(l.Findings, Finding{
				Pass: "fpstack", Func: f.Sym.Name, Addr: f.Sym.Addr,
				Msg: fmt.Sprintf("FP stack underflow: needs %d value(s) on entry, callers provide as few as %d", fl.fpNeed, iv.lo),
			})
		}
		if iv.hi+fl.fpRise > isa.NumFPReg {
			l.Findings = append(l.Findings, Finding{
				Pass: "fpstack", Func: f.Sym.Name, Addr: f.Sym.Addr,
				Msg: fmt.Sprintf("FP stack overflow: depth reaches %d, register file holds %d", iv.hi+fl.fpRise, isa.NumFPReg),
			})
		}
	}
}

// fpDepthAt returns the relative FP depth at the end of block bi (i.e.
// at its call instruction, for termCall blocks), re-simulating from the
// recorded block-entry depth.
func (l *Liveness) fpDepthAt(fl *funcLive, bi int) int {
	f := fl.f
	depth := 0
	if bi < len(fl.fpDepthIn) {
		depth = fl.fpDepthIn[bi]
	}
	b := &f.Blocks[bi]
	for i := b.Start; i < b.End-1; i++ {
		depth += l.fpDeltaOf(f.Instrs[i])
	}
	return depth
}

func (l *Liveness) fpDeltaOf(in isa.Instr) int {
	if in.Op == isa.OpCall {
		if g := l.calleeOf(in); g != nil {
			return g.fpDelta
		}
		return 0
	}
	_, delta := in.FPEffect()
	return delta
}

// fpIntra runs the forward FP-depth walk over one function, using the
// current callee summaries.  It returns the function's need/rise/delta
// summary, the per-block entry depths, and (when report is set) the
// depth-consistency findings.
func (l *Liveness) fpIntra(fl *funcLive, report bool) (need, rise, delta int, depthAt []int, findings []Finding) {
	f := fl.f
	if len(f.Blocks) == 0 {
		return 0, 0, 0, nil, nil
	}
	bad := func(i int, format string, args ...interface{}) {
		if report {
			findings = append(findings, Finding{
				Pass: "fpstack", Func: f.Sym.Name, Addr: f.Addr(i), Msg: fmt.Sprintf(format, args...),
			})
		}
	}
	depthIn := make([]int, len(f.Blocks))
	visited := make([]bool, len(f.Blocks))
	joined := make([]bool, len(f.Blocks))
	visited[0] = true
	work := []int{0}
	retDepth, sawRet := 0, false
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		depth := depthIn[bi]
		b := &f.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			in := f.Instrs[i]
			if !in.Op.Valid() {
				break
			}
			if in.Op == isa.OpCall {
				if g := l.calleeOf(in); g != nil {
					if n := g.fpNeed - depth; n > need {
						need = n
					}
					if r := depth + g.fpRise; r > rise {
						rise = r
					}
					depth += g.fpDelta
				}
				continue
			}
			min, d := in.FPEffect()
			if n := min - depth; n > need {
				need = n
			}
			depth += d
			if depth > rise {
				rise = depth
			}
			if in.Op == isa.OpRet {
				if sawRet && depth != retDepth {
					bad(i, "inconsistent FP stack depth at returns (%+d here vs %+d elsewhere)", depth, retDepth)
				}
				retDepth, sawRet = depth, true
			}
		}
		for _, s := range b.Succs {
			if !visited[s] {
				visited[s] = true
				depthIn[s] = depth
				work = append(work, s)
			} else if depthIn[s] != depth && !joined[s] {
				joined[s] = true
				bad(f.Blocks[s].Start, "inconsistent FP stack depth at join (%+d vs %+d)", depthIn[s], depth)
			}
		}
	}
	if sawRet {
		delta = retDepth
	}
	return need, rise, delta, depthIn, findings
}
