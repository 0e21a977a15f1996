package analysis

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"mpifault/internal/image"
	"mpifault/internal/isa"
)

// The equivalence pass turns the dataflow pass's first-use sets into the
// partition of the injection space that internal/core samples from: at
// every reachable instruction boundary it splits the 320-bit register
// target space into provably-benign bits (flipping them cannot change
// the execution) and equivalence classes (bits whose corruption flows
// into the same first uses, so one pilot injection per class stands in
// for all its members).  It also carries the static benign claims for
// the data/BSS and stack regions: unreferenced user symbols and dead
// local slots.
//
// Everything here is a *claim* to be validated: core.ValidateEquivalence
// checks a fixed-seed campaign against the partition, and any benign
// site that manifests or class whose pilots disagree is an analyzer bug,
// not an acceptable approximation.

// partEntry is the per-PC partition in the exact shape the
// core.EquivalenceMap interface exposes: a benign mask (bits 0..NumGPR-1
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

// Equivalence is the computed partition for one program.  It implements
// core.EquivalenceMap.
type Equivalence struct {
	Prog *Program
	Live *Liveness
	Flow *Dataflow

	// Stack holds the per-function dead-slot analysis (report-only: the
	// campaign's stack injector is validated against the data/register
	// claims, while slot claims feed the summary and faultlint output).
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

// EquivalenceFor runs the whole static pipeline over an image — CFG,
// liveness, ABI audit, dataflow, partition — and returns the map an
// equivalence-driven campaign injects by.  Unlike StaticAVF, findings
// are fatal: a partition built on an analysis the lint passes dispute
// would make benign claims nobody can trust.
func EquivalenceFor(im *image.Image) (*Equivalence, error) {
	prog, err := Analyze(im)
	if err != nil {
		return nil, err
	}
	live := ComputeLiveness(prog)
	abiFindings, abiStats := ABICheck(prog)
	flow := ComputeDataflow(prog, live)
	if n := len(prog.Findings) + len(live.Findings) + len(abiFindings) + len(flow.Findings); n > 0 {
		return nil, fmt.Errorf("static analysis reported %d findings; run faultlint", n)
	}
	return ComputeEquivalence(prog, live, flow, abiStats), nil
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
// spans the campaign validator can query per fault address.
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

// PartitionAt implements core.EquivalenceMap.
func (eq *Equivalence) PartitionAt(pc uint32) (benignMask uint16, classIDs [10]uint64, ok bool) {
	p, ok := eq.parts[pc]
	if !ok {
		return 0, classIDs, false
	}
	return p.benign, p.ids, true
}

// StaticBenignAt implements core.EquivalenceMap: it reports whether addr
// falls inside a user data/BSS symbol the analysis claims is benign
// (never referenced by reachable code).
func (eq *Equivalence) StaticBenignAt(addr uint32) bool {
	i := sort.Search(len(eq.benignData), func(i int) bool { return eq.benignData[i].hi > addr })
	return i < len(eq.benignData) && eq.benignData[i].lo <= addr
}

// WriteReport prints the partition summary as a table: per region, the
// provably-benign portion of the injection space and the pruning the
// class structure buys.
func (eq *Equivalence) WriteReport(w io.Writer) {
	s := eq.Summary
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "region\tbenign\ttotal\tprovably benign\t")
	row := func(name string, benign, total uint64, unit string) {
		if total == 0 {
			return
		}
		fmt.Fprintf(tw, "%s\t%d %s\t%d %s\t%.1f%%\t\n", name, benign, unit, total, unit,
			100*float64(benign)/float64(total))
	}
	row("Regular Reg.", s.RegBenignBits, s.RegTotalBits, "bits")
	row("Stack (locals)", s.StackDeadBytes, s.StackFrameBytes, "bytes")
	row("Data", s.DataBenignBytes, s.DataBytes, "bytes")
	row("BSS", s.BSSBenignBytes, s.BSSBytes, "bytes")
	tw.Flush()
	fmt.Fprintf(w, "equivalence: %d register classes over %d sites (%.1f bits/site benign)\n",
		s.RegClasses, s.Sites, float64(s.RegBenignBits)/float64(max(1, s.Sites)))
}
