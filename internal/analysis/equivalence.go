package analysis

import (
	"sort"

	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// The equivalence pass turns the dataflow pass's first-use sets into a
// partition of the register injection space: at every reachable
// instruction boundary it splits the 320-bit register target space into
// provably-benign bits (flipping them cannot change the execution) and
// equivalence classes (bits whose corruption flows into the same first
// uses).  It also carries the static benign claims for the data/BSS and
// stack regions: unreferenced user symbols and dead local slots.
//
// No campaign samples from the partition: register faults are drawn
// uniformly (core.ApplyRegisterFault), as in the paper.  The pass stays
// because the benchmark's static-analysis probe times it.

// partEntry is the per-PC partition: a benign mask (bits 0..NumGPR-1
// mark fully-benign GPRs, bit NumGPR a fully-benign flags word) and a
// class identity per injection target (0..7 the GPRs, 8 the PC, 9 the
// flags word; zero for benign targets).
type partEntry struct {
	benign uint16
	ids    [10]uint64
}

// addrSpan is a half-open [lo, hi) address range.
type addrSpan struct{ lo, hi uint32 }

// EquivSummary aggregates the partition for reports and goldens.  All
// fields are integers so serialized summaries are byte-stable.
type EquivSummary struct {
	// Sites is the number of reachable instruction boundaries partitioned.
	Sites int `json:"sites"`
	// RegClasses is the number of distinct GPR/flags equivalence classes
	// across all sites (PC targets are excluded: every PC bit-flip is its
	// own class, so they never prune).
	RegClasses int `json:"reg_classes"`
	// RegTotalBits/RegBenignBits: the register target space summed over
	// sites (320 bits each) and its provably-benign portion.
	RegTotalBits  uint64 `json:"reg_total_bits"`
	RegBenignBits uint64 `json:"reg_benign_bits"`
	// StackFrameBytes/StackDeadBytes: link-time frame bytes of reachable
	// user functions and the provably-dead local-slot bytes within them.
	StackFrameBytes uint64 `json:"stack_frame_bytes"`
	StackDeadBytes  uint64 `json:"stack_dead_bytes"`
	// DataBytes/DataBenignBytes and BSSBytes/BSSBenignBytes: user symbol
	// bytes per section and the portion in symbols no reachable
	// instruction references.
	DataBytes       uint64 `json:"data_bytes"`
	DataBenignBytes uint64 `json:"data_benign_bytes"`
	BSSBytes        uint64 `json:"bss_bytes"`
	BSSBenignBytes  uint64 `json:"bss_benign_bytes"`
}

// Equivalence is the computed partition for one program.
type Equivalence struct {
	Prog *Program
	Live *Liveness
	Flow *Dataflow

	// Stack holds the per-function dead-slot analysis, which feeds the
	// summary.
	Stack []StackSlotInfo

	Summary EquivSummary

	parts      map[uint32]partEntry
	benignData []addrSpan
}

// ComputeEquivalence builds the site partition from the analysis stack.
// abiStats (from ABICheck) supplies link-time frame sizes for the stack
// summary; functions without an entry contribute no frame bytes rather
// than a guessed extent.
func ComputeEquivalence(prog *Program, live *Liveness, flow *Dataflow, abiStats map[string]ABIStats) *Equivalence {
	eq := &Equivalence{
		Prog:  prog,
		Live:  live,
		Flow:  flow,
		parts: make(map[uint32]partEntry),
	}
	classes := make(map[uint64]bool)
	for _, f := range prog.Funcs {
		if !f.Reachable {
			// The campaign can only trigger inside code reachable from the
			// entry point; partitioning dead functions would inflate the
			// summary without ever being consulted.
			continue
		}
		for i := range f.Instrs {
			if !f.reach[i] {
				continue
			}
			pc := f.Addr(i)
			mask, ok := live.LiveAt(pc)
			if !ok {
				continue
			}
			p := eq.partitionOf(pc, RegMask(mask))
			eq.parts[pc] = p
			eq.Summary.Sites++
			eq.Summary.RegTotalBits += regSpaceBits
			eq.Summary.RegBenignBits += uint64(benignBitCount(p.benign))
			for t, id := range p.ids {
				if t != 8 && id != 0 { // PC classes never prune; see EquivSummary
					classes[id] = true
				}
			}
		}
	}
	eq.Summary.RegClasses = len(classes)
	eq.computeStack(abiStats)
	eq.computeData()
	return eq
}

// regSpaceBits mirrors core.RegisterSpaceBits: (8 GPRs + PC + flags) x 32.
const regSpaceBits = (isa.NumGPR + 2) * 32

// benignBitCount is the number of provably-benign bits a partEntry mask
// claims out of the 320-bit register space.
func benignBitCount(mask uint16) int {
	n := 0
	for g := 0; g < isa.NumGPR; g++ {
		if mask&(1<<g) != 0 {
			n += 32
		}
	}
	if mask&(1<<isa.NumGPR) != 0 {
		n += 32
	} else {
		n += 32 - isa.FlagsReadableBits
	}
	return n
}

func (eq *Equivalence) partitionOf(pc uint32, m RegMask) partEntry {
	var p partEntry
	for r := 0; r < isa.NumGPR; r++ {
		if !m.Has(r) {
			p.benign |= 1 << r
			continue
		}
		id, ok := eq.Flow.ClassID(pc, r)
		if !ok || id == 0 {
			// Liveness says live but dataflow has no first use — the
			// cross-check has already flagged this as an analyzer bug;
			// degrade to a per-site singleton class so sampling stays
			// sound while the bug is fixed.
			id = classHash(16+r, []uint64{uint64(pc)})
		}
		p.ids[r] = id
	}
	// Every PC bit-flip redirects control differently: per-site class.
	p.ids[8] = classHash(9, []uint64{uint64(pc)})
	if !m.HasFlags() {
		p.benign |= 1 << isa.NumGPR
	} else {
		id, ok := eq.Flow.ClassID(pc, FlagsBit)
		if !ok || id == 0 {
			id = classHash(16+FlagsBit, []uint64{uint64(pc)})
		}
		p.ids[9] = id
	}
	return p
}

func (eq *Equivalence) computeStack(abiStats map[string]ABIStats) {
	eq.Stack = eq.Flow.StackSlots()
	for _, s := range eq.Stack {
		eq.Summary.StackDeadBytes += uint64(s.DeadBytes)
	}
	for _, f := range eq.Prog.Funcs {
		if !f.Reachable || f.Sym.Owner != image.OwnerUser {
			continue
		}
		st, ok := abiStats[f.Sym.Name]
		if !ok {
			continue
		}
		eq.Summary.StackFrameBytes += uint64(4 + 4*st.MaxDepthWords)
	}
}

// computeData collects the unreferenced user data/BSS symbols — the same
// referenced-set the AVF estimator uses, inverted into benign address
// spans.
func (eq *Equivalence) computeData() {
	referenced := referencedDataSyms(eq.Prog)
	for _, sym := range eq.Prog.Image.Symbols {
		if sym.Owner != image.OwnerUser {
			continue
		}
		switch sym.Kind {
		case image.SymData:
			eq.Summary.DataBytes += uint64(sym.Size)
			if !referenced[sym.Name] {
				eq.Summary.DataBenignBytes += uint64(sym.Size)
			}
		case image.SymBSS:
			eq.Summary.BSSBytes += uint64(sym.Size)
			if !referenced[sym.Name] {
				eq.Summary.BSSBenignBytes += uint64(sym.Size)
			}
		default:
			continue
		}
		if !referenced[sym.Name] && sym.Size > 0 {
			eq.benignData = append(eq.benignData, addrSpan{lo: sym.Addr, hi: sym.Addr + sym.Size})
		}
	}
	sort.Slice(eq.benignData, func(i, j int) bool { return eq.benignData[i].lo < eq.benignData[j].lo })
}
