package analysis

import "mpifault/internal/image"

// The equivalence pass summarizes the static benign claims for the
// data/BSS and stack regions: unreferenced user symbols and dead local
// slots.  Campaigns draw faults uniformly, as in the paper, so nothing
// samples from these claims; the pass stays because the benchmark's
// static-analysis probe times ComputeEquivalence over the dataflow pass.

// EquivSummary aggregates the static benign claims.  All fields are
// integers so serialized summaries are byte-stable.
type EquivSummary struct {
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

// Equivalence is the computed summary for one program.
type Equivalence struct {
	Prog *Program
	Live *Liveness
	Flow *Dataflow

	// Stack holds the per-function dead-slot analysis, which feeds the
	// summary.
	Stack []StackSlotInfo

	Summary EquivSummary
}

// ComputeEquivalence builds the summary from the analysis stack.
// abiStats (from ABICheck) supplies link-time frame sizes for the stack
// summary; functions without an entry contribute no frame bytes rather
// than a guessed extent.
func ComputeEquivalence(prog *Program, live *Liveness, flow *Dataflow, abiStats map[string]ABIStats) *Equivalence {
	eq := &Equivalence{Prog: prog, Live: live, Flow: flow}
	eq.computeStack(abiStats)
	eq.computeData()
	return eq
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

// computeData counts the unreferenced user data/BSS symbols' bytes — the
// same referenced-set the AVF estimator uses, inverted.
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
		}
	}
}
